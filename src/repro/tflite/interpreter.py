"""Reference interpreter: executes a FlatModel on the CPU.

This is the ``tflite_runtime.Interpreter`` stand-in.  It defines the
golden integer semantics; the Edge TPU simulator must produce
bit-identical outputs (asserted in tests) while charging different time.
"""

from __future__ import annotations

import numpy as np

from repro.tflite.flatmodel import FlatModel

__all__ = ["Interpreter"]


class Interpreter:
    """Executes a quantized flat model.

    The op chain runs through the stack's one int8 executor, an
    arena-backed :class:`~repro.runtime.plan.ModelPlan` owned by this
    interpreter and grown to the largest batch it has run (``FC→TANH``
    pairs fuse, skipping the intermediate int8 tensor); outputs are
    bit-identical to running ``op.run`` op by op, which the tests
    assert.

    Args:
        model: The flat model to execute.

    Example::

        interpreter = Interpreter(model)
        scores = interpreter.run(features)        # float in, float out
        raw = interpreter.run_quantized(q_input)  # int8 in, int8/int64 out
    """

    def __init__(self, model: FlatModel):
        self.model = model
        self._plan = None

    def run_quantized(self, x: np.ndarray) -> np.ndarray:
        """Run on already-quantized input.

        Args:
            x: int8 array of shape ``(batch, input_dim)`` or
                ``(input_dim,)``.

        Returns:
            The final op's raw output (int8 activations, or int64 indices
            for argmax models), with the batch dimension preserved.
        """
        x = np.asarray(x)
        if x.dtype != np.int8:
            raise TypeError(f"quantized input must be int8, got {x.dtype}")
        single = x.ndim == 1
        if single:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != self.model.input_spec.size:
            raise ValueError(
                f"expected input width {self.model.input_spec.size}, "
                f"got shape {x.shape}"
            )
        if len(x) == 0:
            dtype = np.int64 if self.model.output_is_index else np.int8
            return np.empty((0, self.model.output_spec.size), dtype=dtype)
        plan = self._plan
        if plan is None or plan.max_rows < len(x):
            plan = self._plan = self.plan(len(x))
        out = plan.run_device(x).copy()
        return out[0] if single else out

    def run(self, x: np.ndarray) -> np.ndarray:
        """Run on float input: quantize → execute → dequantize.

        For argmax models the int64 class indices are returned as a
        ``(batch,)`` vector; otherwise float32 activations of shape
        ``(batch, output_dim)``.
        """
        x = np.asarray(x, dtype=np.float32)
        single = x.ndim == 1
        quantized = self.model.input_spec.qparams.quantize(x)
        out = self.run_quantized(quantized)
        if self.model.output_is_index:
            out = out[..., 0] if not single else out[0]
            return out
        return self.model.output_spec.qparams.dequantize(out)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class predictions regardless of whether the model has argmax."""
        out = self.run(x)
        if self.model.output_is_index:
            return np.asarray(out, dtype=np.int64)
        return np.argmax(out, axis=-1).astype(np.int64)

    def plan(self, max_batch: int):
        """A new arena-backed plan for this model, owned by the caller.

        The returned :class:`~repro.runtime.plan.ModelPlan` executes the
        whole op chain through buffers sized to ``max_batch`` rows; any
        batch up to that runs at its real size on ``[:n]`` views.
        ``plan.predict(x)`` is bit-identical to :meth:`predict` but
        allocation-free in steady state, with int8 operands and packed
        weights only — the native AVX-512 VNNI kernels where
        :func:`repro.native.available` and the op's int32 bound allow,
        the in-place numpy arena otherwise.

        Args:
            max_batch: Largest batch the plan runs.
        """
        from repro.runtime.plan import ModelPlan
        return ModelPlan.for_model(self.model, max_batch)
