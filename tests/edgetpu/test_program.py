"""Tests for instruction-level lowering (device disassembly)."""

import numpy as np
import pytest

from repro.edgetpu import EdgeTpuArch, compile_model, lower
from repro.tflite import FlatModel, TensorSpec
from repro.tflite.ops import ArgmaxOp, FullyConnectedOp, TanhOp
from repro.tflite.quantization import qparams_asymmetric


def _model(rng, n=100, d=512, k=10):
    in_qp = qparams_asymmetric(-4.0, 4.0)
    hid_qp = qparams_asymmetric(-40.0, 40.0)
    out_qp = qparams_asymmetric(-30.0, 30.0)
    fc1 = FullyConnectedOp.from_float(
        rng.standard_normal((n, d)).astype(np.float32), in_qp, hid_qp,
        name="encode")
    tanh = TanhOp(hid_qp, name="tanh")
    fc2 = FullyConnectedOp.from_float(
        rng.standard_normal((d, k)).astype(np.float32) * 0.05,
        tanh.output_qparams, out_qp, name="classify")
    return FlatModel("hdc", TensorSpec("input", (n,), in_qp),
                     [fc1, tanh, fc2, ArgmaxOp(out_qp)])


class TestLower:
    @pytest.fixture()
    def compiled(self, rng):
        return compile_model(_model(rng))

    def test_cycle_totals_match_plan_exactly(self, compiled):
        for batch in (1, 7, 64):
            program = lower(compiled, batch=batch)
            assert program.total_cycles == pytest.approx(
                compiled.compute_cycles(batch)
            )

    def test_seconds_match_invoke_seconds(self, compiled):
        for batch in (1, 16):
            program = lower(compiled, batch=batch)
            assert program.seconds() == pytest.approx(
                compiled.invoke_seconds(batch)
            )

    def test_transfer_bytes(self, compiled):
        program = lower(compiled, batch=4)
        assert program.total_transfer_bytes == \
            4 * compiled.tpu_input_bytes + 4 * compiled.tpu_output_bytes

    def test_instruction_mix(self, compiled, rng):
        program = lower(compiled, batch=1)
        arch = compiled.arch
        # 100 x 512 -> 2 x 8 tiles, 512 x 10 -> 8 x 1 tiles.
        row1 = -(-100 // arch.mxu_rows)
        col1 = -(-512 // arch.mxu_cols)
        row2 = -(-512 // arch.mxu_rows)
        assert program.count("MATMUL") == row1 * col1 + row2 * 1
        assert program.count("ACTIVATE") == 1
        assert program.count("DMA_IN") == 1
        assert program.count("DMA_OUT") == 1
        assert program.count("PIPE_FILL") == 2  # one per dense layer

    def test_streaming_instruction_when_oversized(self, rng):
        compiled = compile_model(_model(rng),
                                 EdgeTpuArch(parameter_buffer_bytes=1024))
        program = lower(compiled, batch=1)
        assert program.count("STREAM_WEIGHTS") == 1

    def test_no_streaming_when_fits(self, compiled):
        assert lower(compiled, batch=1).count("STREAM_WEIGHTS") == 0

    def test_disassembly_readable(self, compiled):
        text = lower(compiled, batch=2).disassembly()
        assert "MATMUL" in text
        assert "encode" in text and "classify" in text
        assert "batch=2" in text

    def test_rejects_bad_batch(self, compiled):
        with pytest.raises(ValueError, match="batch"):
            lower(compiled, batch=0)

    def test_hidden_tile_loads_cost_nothing(self, compiled):
        program = lower(compiled, batch=1)
        hidden = [inst for inst in program.instructions
                  if inst.opcode == "LOAD_TILE" and "hidden" in inst.operand]
        assert hidden and all(inst.cycles == 0 for inst in hidden)
        exposed = [inst for inst in program.instructions
                   if inst.opcode == "LOAD_TILE" and "hidden" not in inst.operand]
        assert all(inst.cycles == compiled.arch.mxu_rows for inst in exposed)

    def test_instructions_are_typed(self, compiled):
        from repro.edgetpu.program import Instruction, Program
        assert Program.__annotations__["instructions"] == "list[Instruction]"
        program = lower(compiled, batch=3)
        assert all(isinstance(inst, Instruction)
                   for inst in program.instructions)


class TestLowerMemoization:
    @pytest.fixture()
    def compiled(self, rng):
        # Multi-tile: 100 x 512 spans 2 x 8 MXU tiles, 512 x 10 spans 8.
        return compile_model(_model(rng))

    def test_seconds_match_memoized_invoke_seconds(self, compiled):
        # invoke_seconds is memoized per batch; a lowered Program's
        # seconds() must agree with both the first (computing) and
        # second (cache-hit) calls, for a multi-tile model.
        for batch in (1, 7, 32):
            first = compiled.invoke_seconds(batch)
            again = compiled.invoke_seconds(batch)
            assert first == again
            program = lower(compiled, batch=batch)
            assert program.seconds() == pytest.approx(first)
            assert lower(compiled, batch=batch).seconds() == \
                pytest.approx(first)
