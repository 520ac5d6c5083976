"""The int8 executor: arena-backed, zero-allocation op-chain plans.

Every int8 inference in the stack runs through a :class:`ModelPlan`:
the server's prediction blocks (every served batch, CPU fallback and
tier sheds included), the device simulator's
:meth:`~repro.edgetpu.device.EdgeTpuDevice.invoke`, the cluster pump's
routed blocks, the reference
:class:`~repro.tflite.interpreter.Interpreter` and the build-time
accuracy of compression tiers.  A plan resolves one compiled model's
op chain once into stages with preallocated scratch buffers:

- **Arena-backed stages** — per fused ``FC(+TANH)`` stage the widened
  input, accumulator, float64 codes, gather indices and int8 output
  live in buffers sized to the owner's largest batch.  Invokes write
  through ``out=`` numpy kernels, or through the native AVX-512 VNNI or
  AMX-INT8 kernels of :mod:`repro.native` when the module is available
  and the op's int32 bound allows, and perform **zero heap
  allocations** in steady state.
- **Real batch sizes** — an ``n``-row batch runs on ``[:n]`` views of
  the arenas, bound on first use of that size.  Nothing is padded, so
  devices and host tails are charged exactly the rows they run.
- **Ownership** — a plan belongs to the server, device, cluster pump or
  interpreter that runs it, never to the shared
  :class:`~repro.edgetpu.compiler.CompiledModel` (a compile cache can
  hand one model to concurrent worker threads).  Only the read-only
  packed weights are cached per op.

Both kernel choices are bit-identical to the frozen
``run_reference`` oracles (the tests assert it), so plans change
measured wall time only; modeled virtual-clock charges never see them.
"""

from __future__ import annotations

import numpy as np

from repro import native
from repro.tflite.ops import ArgmaxOp, FullyConnectedOp, TanhOp

__all__ = ["ModelPlan", "block_rows", "fit_plan"]

# A prediction block's arena budget per stage: enough rows to fill the
# widest stage's int8 output with this many bytes, at most
# _BLOCK_ROWS_MAX, in whole groups of _BLOCK_ROWS_GROUP rows (the AMX
# engine's C-tile block, so a full block leaves it no remainder group).
_BLOCK_BYTES = 2 << 20
_BLOCK_ROWS_MAX = 4096
_BLOCK_ROWS_GROUP = 32


# ----------------------------------------------------------------------
# Stage compilation: op chain -> spec list -> per-size closures
# ----------------------------------------------------------------------


def _stage_specs(ops, width: int):
    """Resolve an op chain into ``(kind, op, fused, in_w)`` specs.

    ``FC+TANH`` becomes one fused stage; ``FC+ARGMAX`` splits into a
    bare FC plus an argmax (bit-identical — requantization is
    monotone, so argmax over int8 codes equals argmax over the float64
    codes a fused kernel would reduce).
    """
    specs = []
    ops = list(ops)
    index = 0
    while index < len(ops):
        op = ops[index]
        nxt = ops[index + 1] if index + 1 < len(ops) else None
        if isinstance(op, FullyConnectedOp):
            fused = nxt if isinstance(nxt, TanhOp) else None
            specs.append(("fc", op, fused, width))
            index += 2 if fused is not None else 1
        elif isinstance(op, TanhOp):
            specs.append(("tanh", op, None, width))
            index += 1
        elif isinstance(op, ArgmaxOp):
            specs.append(("argmax", op, None, width))
            index += 1
        else:
            # An op kind without an arena path is a build-time error,
            # never a silent slow path.
            raise TypeError(
                f"op kind {type(op).__name__} has no arena execution path"
            )
        width = op.output_dim(width)
    return specs


class _FcStage:
    """Arena + kernels for one fused ``FC(+TANH)`` stage.

    Dispatches to the native kernel when the module is available and
    the op has a packed layout (per-tensor multiplier, static int32
    bound proven) — its AMX engine where the packing is padded for it
    and the batch has at least :data:`~repro.native.AMX_MIN_ROWS` rows,
    else VNNI; otherwise to the in-place numpy path
    (``accumulate_into`` / ``requantize_into`` on the op).  All are
    bit-identical to the op's ``run`` / ``run_tanh_fused``.
    """

    def __init__(self, op: FullyConnectedOp, tanh: TanhOp | None,
                 max_rows: int):
        self.op = op
        self.tanh = tanh
        self.n = op.weights.shape[1]
        lib = native.library()
        self._packed = op.vnni_packed() if lib is not None else None
        self.native = self._packed is not None
        if self.native:
            packed = self._packed
            self._kernel = lib.fc_fused_i8
            self._amx_kernel = (lib.fc_fused_i8_amx
                                if packed.amx and native.amx_available()
                                else None)
            # Shifted-activation buffer: the zero padding in columns
            # [k, k4*4) is written once here and never again.  Both
            # buffers start on a cache line, as the tile rows want.
            self._a_u8 = native.aligned_zeros((max_rows, packed.k4 * 4),
                                              np.uint8)
            self._out = native.aligned_zeros((max_rows, packed.n_pad),
                                             np.int8)
            self._lut = tanh.lut if tanh is not None else native.IDENTITY_LUT
        else:
            dtype = op.gemm_dtype
            k = op.weights.shape[0]
            self._x_wide = np.zeros((max_rows, k), dtype=dtype)
            self._acc = np.zeros((max_rows, self.n), dtype=dtype)
            self._codes = np.zeros((max_rows, self.n), dtype=np.float64)
            self._out = np.zeros((max_rows, self.n), dtype=np.int8)
            self._idx = (np.zeros((max_rows, self.n), dtype=np.intp)
                         if tanh is not None else None)
            # Pre-tile the broadcast operands: adding a (n,) row to a
            # (rows, n) accumulator makes numpy malloc a transient
            # iteration buffer per call; same-shape operands don't.
            self._off_tile = np.empty((max_rows, self.n), dtype=dtype)
            self._off_tile[:] = op._gemm_operands()[1]
            self._mult_tile = None
            if not isinstance(op._multiplier, float):
                self._mult_tile = np.empty((max_rows, self.n),
                                           dtype=np.float64)
                self._mult_tile[:] = op._multiplier

    def bind(self, rows: int, x_view: np.ndarray):
        """Build this stage's zero-allocation closure for ``rows`` rows.

        Returns ``(run, out_view)`` where ``run()`` consumes ``x_view``
        in place and ``out_view`` is the stage's int8 output.
        """
        if self.native:
            op = self.op
            qparams = op.output_qparams
            out = self._out[:rows]
            # The arenas never move: views and the kernel's C arguments
            # are resolved here, once per batch size.
            x_u8 = x_view.view(np.uint8)
            a_cols = self._a_u8[:rows, :x_view.shape[1]]
            kernel = (self._amx_kernel
                      if self._amx_kernel is not None
                      and rows >= native.AMX_MIN_ROWS else self._kernel)
            args = native.fc_fused_i8_args(
                self._a_u8[:rows], self._packed, op._multiplier,
                qparams.zero_point, qparams.qmin, qparams.qmax, self._lut,
                out)

            def run() -> None:
                # x + 128 as uint8 (wraparound), then the fused kernel.
                np.add(x_u8, 128, out=a_cols)
                kernel(*args)

            return run, out[:, :self.n]

        op = self.op
        x_wide = self._x_wide[:rows]
        acc = self._acc[:rows]
        codes = self._codes[:rows]
        out = self._out[:rows]
        off = self._off_tile[:rows]
        mult = (self._mult_tile[:rows]
                if self._mult_tile is not None else None)
        if self.tanh is not None:
            idx = self._idx[:rows]
            lut = self.tanh.lut

            def run() -> None:
                op.accumulate_into(x_view, acc, x_wide, off)
                op.requantize_into(acc, codes, mult)
                np.add(codes, 128, out=codes)
                np.copyto(idx, codes, casting="unsafe")
                lut.take(idx, out=out, mode="clip")

        else:

            def run() -> None:
                op.accumulate_into(x_view, acc, x_wide, off)
                op.requantize_into(acc, codes, mult)
                np.copyto(out, codes, casting="unsafe")

        return run, out


class _TanhStage:
    """Arena for a standalone int8 tanh (LUT gather in place)."""

    def __init__(self, op: TanhOp, width: int, max_rows: int):
        self.op = op
        self._idx = np.zeros((max_rows, width), dtype=np.intp)
        self._out = np.zeros((max_rows, width), dtype=np.int8)

    def bind(self, rows: int, x_view: np.ndarray):
        idx = self._idx[:rows]
        out = self._out[:rows]
        lut_u8 = self.op._lut_u8

        def run() -> None:
            np.copyto(idx, x_view.view(np.uint8))
            lut_u8.take(idx, out=out, mode="clip")

        return run, out


class _ArgmaxStage:
    """Arena for an argmax: int8 codes -> int64 class indices."""

    def __init__(self, max_rows: int):
        # np.argmax(out=...) demands an intp destination; on every
        # supported platform intp is int64, which the serving report
        # stores.  The (rows, 1) shape matches ArgmaxOp.run's keepdims.
        self._out = np.zeros((max_rows, 1), dtype=np.intp)

    def bind(self, rows: int, x_view: np.ndarray):
        out = self._out[:rows]
        flat = out.reshape(rows)

        def run() -> None:
            np.argmax(x_view, axis=-1, out=flat)

        return run, out


class _Views:
    """One batch size's bound arena views and stage closures."""

    __slots__ = ("scratch", "q", "device_runs", "device_out",
                 "tail_runs", "predictions")

    def __init__(self, scratch, q, device_runs, device_out, tail_runs,
                 predictions):
        self.scratch = scratch
        self.q = q
        self.device_runs = device_runs
        self.device_out = device_out
        self.tail_runs = tail_runs
        self.predictions = predictions


class _HostModel:
    """Duck-typed ``CompiledModel`` stand-in for a bare :class:`FlatModel`.

    Lets :meth:`ModelPlan.for_model` plan the *whole* op chain as
    device stages — the reference-interpreter view of the model, with
    no device/tail split and no lowering plans to derive a tail width
    from.
    """

    __slots__ = ("model", "tpu_ops", "cpu_ops", "plans")

    def __init__(self, model):
        self.model = model
        self.tpu_ops = list(model.ops)
        self.cpu_ops = []
        self.plans = []


class ModelPlan:
    """One compiled model's arena-backed execution plan.

    Built once per owner; afterwards its entry points — :attr:`inputs`
    with :meth:`predict_inputs` (a server's prediction blocks),
    :meth:`predict` (the cluster pump's routed rows) and
    :meth:`run_device` (device invokes and the training encode) —
    perform no heap allocations: features land in a preallocated
    float64 scratch, quantize in place, flow through per-stage arenas,
    and predictions come back as a view into a preallocated buffer.
    Every call takes the batch at its real size ``n <= max_rows`` and
    returns ``n``-row views, valid until the plan's next call.

    Args:
        compiled: The :class:`~repro.edgetpu.compiler.CompiledModel`.
        max_rows: The owner's largest batch; arenas are sized to it.
    """

    def __init__(self, compiled, max_rows: int):
        if max_rows < 1:
            raise ValueError(f"max_rows must be >= 1, got {max_rows}")
        self.compiled = compiled
        self.max_rows = max_rows
        self._qparams = compiled.model.input_spec.qparams
        self.in_dim = compiled.model.input_spec.size

        self._scratch = np.zeros((max_rows, self.in_dim), dtype=np.float64)
        self._q = np.zeros((max_rows, self.in_dim), dtype=np.int8)
        tail_width = (compiled.plans[-1].output_dim
                      if compiled.plans else self.in_dim)
        self._device_stages = [
            self._build_stage(spec)
            for spec in _stage_specs(compiled.tpu_ops, self.in_dim)
        ]
        self._tail_stages = [
            self._build_stage(spec)
            for spec in _stage_specs(compiled.cpu_ops, tail_width)
        ]
        # Models whose last op emits activations get the final argmax
        # in the tail (mirroring run_host_tail); index-output models end
        # in an ARGMAX op whose (rows, 1) output is reduced by a view.
        if not compiled.model.output_is_index:
            self._tail_stages.append(_ArgmaxStage(max_rows))
        self.native = any(
            isinstance(st, _FcStage) and st.native
            for st in self._device_stages + self._tail_stages
        )
        self._views: dict[int, _Views] = {}

    @classmethod
    def for_model(cls, model, max_rows: int) -> "ModelPlan":
        """Plan a bare :class:`~repro.tflite.flatmodel.FlatModel`.

        The whole op chain executes as device stages (no device/tail
        split) — the interpreter's executor; :meth:`run_device` returns
        the last op's output.
        """
        return cls(_HostModel(model), max_rows)

    def _build_stage(self, spec):
        kind, op, fused, in_w = spec
        if kind == "fc":
            return _FcStage(op, fused, self.max_rows)
        if kind == "tanh":
            return _TanhStage(op, in_w, self.max_rows)
        return _ArgmaxStage(self.max_rows)

    def _bound(self, rows: int) -> _Views:
        """The views for ``rows`` rows, bound on first use."""
        views = self._views.get(rows)
        if views is None:
            if rows < 1:
                raise ValueError("cannot run an empty batch")
            if rows > self.max_rows:
                raise ValueError(
                    f"batch of {rows} exceeds the plan's {self.max_rows} "
                    f"rows"
                )
            views = self._views[rows] = self._bind(rows)
        return views

    def _bind(self, rows: int) -> _Views:
        q = self._q[:rows]
        current = q
        device_runs = []
        for stage in self._device_stages:
            run, current = stage.bind(rows, current)
            device_runs.append(run)
        device_out = current
        tail_runs = []
        for stage in self._tail_stages:
            run, current = stage.bind(rows, current)
            tail_runs.append(run)
        return _Views(self._scratch[:rows], q, device_runs, device_out,
                      tail_runs, current[:, 0])

    # ------------------------------------------------------------------
    # Steady-state API (all zero-allocation)
    # ------------------------------------------------------------------

    @property
    def inputs(self) -> np.ndarray:
        """The ``(max_rows, in_dim)`` float64 input arena.

        An owner may write rows into it in place and run the first
        ``n`` with :meth:`predict_inputs`, with no staging copy.
        """
        return self._scratch

    def stage(self, features) -> np.ndarray:
        """Load a float batch into the arena and quantize it.

        Args:
            features: A ``(n, in_dim)`` array or a sequence of ``n``
                1-D feature rows.

        Returns:
            The int8 input view, ``(n, in_dim)`` — bit-identical to
            ``input_spec.qparams.quantize(features)``.
        """
        views = self._bound(len(features))
        if isinstance(features, np.ndarray):
            views.scratch[:] = features
        else:
            for i, row in enumerate(features):
                views.scratch[i] = row
        self._qparams.quantize_into(views.scratch, views.q, views.scratch)
        return views.q

    def run_device(self, x: np.ndarray) -> np.ndarray:
        """Run the device-mapped stages on an int8 batch.

        The executor :meth:`EdgeTpuDevice.invoke
        <repro.edgetpu.device.EdgeTpuDevice.invoke>` runs: bit-identical
        to the op chain, returning a view of the device-output arena.
        ``x`` may be the view :meth:`stage` returned (no copy) or any
        int8 array, which is copied in.
        """
        views = self._bound(x.shape[0])
        if x is not views.q:
            np.copyto(views.q, x)
        for run in views.device_runs:
            run()
        return views.device_out

    def run_tail(self, outputs: np.ndarray) -> np.ndarray:
        """Host tail on device outputs; returns an int64 predictions view."""
        views = self._bound(outputs.shape[0])
        if outputs is not views.device_out:
            np.copyto(views.device_out, outputs)
        for run in views.tail_runs:
            run()
        return views.predictions

    def run_host(self, q: np.ndarray) -> np.ndarray:
        """Full chain on the host (CPU-fallback path); predictions view."""
        return self.run_tail(self.run_device(q))

    def predict(self, features) -> np.ndarray:
        """Quantize + device stages + tail.

        Returns a *view* into the plan's prediction buffer — copy it if
        it must survive the next call.
        """
        return self.run_host(self.stage(features))

    def predict_inputs(self, rows: int) -> np.ndarray:
        """:meth:`predict` on the first ``rows`` rows already written
        into :attr:`inputs`, which quantize there in place (so a second
        run needs the rows written again)."""
        views = self._bound(rows)
        self._qparams.quantize_into(views.scratch, views.q, views.scratch)
        return self.run_host(views.q)


def block_rows(compiled) -> int:
    """Rows of one prediction block of ``compiled``: as many as keep
    its widest stage's int8 arena within a fixed 2 MiB, capped at 4096
    and rounded down to a multiple of 32 (when there are that many).

    The standalone server's deferred predictions and the cluster pump's
    routed rows both run in blocks of this size: 192 rows at the
    paper's 10,000-wide encoder, 4096 for the fleets' 256-wide models.
    """
    width = widest = compiled.model.input_spec.size
    for op in compiled.model.ops:
        width = op.output_dim(width)
        widest = max(widest, width)
    rows = min(_BLOCK_ROWS_MAX, _BLOCK_BYTES // widest)
    if rows >= _BLOCK_ROWS_GROUP:
        rows -= rows % _BLOCK_ROWS_GROUP
    return max(1, rows)


def fit_plan(plans: dict, compiled, rows: int) -> ModelPlan:
    """The owner's plan for ``compiled``, rebuilt when ``rows`` outgrow it.

    ``plans`` maps ``id(compiled)`` to that owner's :class:`ModelPlan`
    (the plan pins the model, so the id stays valid).  A prediction
    block or the cluster pump passes :func:`block_rows`; a device, which
    cannot know its largest batch up front, passes each batch's rows and
    so grows its arena to the largest batch it has been asked to run.
    """
    plan = plans.get(id(compiled))
    if plan is None or plan.max_rows < rows:
        plan = plans[id(compiled)] = ModelPlan(compiled, rows)
    return plan
