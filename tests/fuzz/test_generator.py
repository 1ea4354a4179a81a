"""The random kernel generator: determinism, validity, serializability.

The fuzzer is only a regression tool if a (seed, index) pair names one
kernel forever: the corpus provenance, the CI smoke job and any bug
report quoting a seed all rely on replayability.  These tests pin that
property end to end — equal specs, equal circuits (same
``structural_key``), identical golden runs — and check that every
generated spec passes its own validator and survives a JSON round trip.
"""

import json

import pytest

from repro.compile import compile_function
from repro.dataflow.codegen import structural_key
from repro.eval.configs import configs_from_names
from repro.fuzz import (
    generate_spec,
    instruction_count,
    spec_from_dict,
    spec_to_kernel,
    validate_spec,
)

#: a small but varied sample of the (seed, index) space
POINTS = [(0, 0), (0, 1), (9, 0), (9, 7), (3, 15), (1234, 2)]


@pytest.mark.parametrize("seed,index", POINTS)
def test_same_seed_same_spec(seed, index):
    a = generate_spec(seed, index)
    b = generate_spec(seed, index)
    assert a.to_dict() == b.to_dict()
    assert a.name == b.name == f"fuzz_s{seed}_k{index}"


@pytest.mark.parametrize("seed,index", POINTS)
def test_same_seed_same_circuit_and_golden(seed, index):
    """Two independent generations compile to the same structural key
    and produce bit-identical interpreter runs."""
    config = configs_from_names(["dynamatic"])[0]
    keys, goldens = [], []
    for _ in range(2):
        kernel = spec_to_kernel(generate_spec(seed, index))
        build = compile_function(
            kernel.build_ir(), config, args=kernel.args
        )
        keys.append(structural_key(build.circuit))
        goldens.append(kernel.golden().memory)
    assert keys[0] == keys[1]
    assert goldens[0] == goldens[1]


def test_distinct_indices_distinct_kernels():
    """Adjacent indices must not collapse onto one kernel (the per-index
    stream split ``(seed << 20) ^ index`` would be broken)."""
    dicts = [generate_spec(5, i).to_dict() for i in range(8)]
    serialized = {json.dumps(d, sort_keys=True) for d in dicts}
    assert len(serialized) >= 6  # rare shape collisions allowed


@pytest.mark.parametrize("seed", [0, 1, 2, 9])
def test_generated_specs_validate_and_roundtrip(seed):
    for index in range(10):
        spec = generate_spec(seed, index)
        validate_spec(spec)  # raises on an out-of-bounds subscript
        assert instruction_count(spec) > 0
        clone = spec_from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone.to_dict() == spec.to_dict()


@pytest.mark.parametrize("seed", [0, 7])
def test_generated_kernels_have_runnable_golden(seed):
    """Every generated spec builds IR and completes an interpreter run
    (bounded loops, in-range subscripts, non-empty memory)."""
    for index in range(5):
        kernel = spec_to_kernel(generate_spec(seed, index))
        golden = kernel.golden()
        assert golden.memory
        assert all(
            isinstance(v, int) for vs in golden.memory.values() for v in vs
        )
