"""run_batch: degenerate batches, lazy inputs, dedup and ordering.

The batch API is the entry point for sweeping many inputs of one
kernel, so every shape a caller actually sends — empty request, single
lane, every lane identical, partial duplication, mixed structures, a
generator instead of a list — must behave exactly like the obvious
sequential loop of ``run_kernel`` calls, on every engine.
"""

import pytest

from repro.eval.configs import DYNAMATIC, PREVV16
from repro.eval.runner import run_batch, run_kernel
from repro.kernels import get_kernel

ENGINES = ("compiled", "levelized")


@pytest.mark.parametrize("engine", ENGINES)
def test_empty_batch(engine):
    assert run_batch([], DYNAMATIC, engine=engine) == []


@pytest.mark.parametrize("engine", ENGINES)
def test_single_kernel_batch(engine):
    kernel = get_kernel("vadd", n=6)
    (res,) = run_batch([kernel], DYNAMATIC, engine=engine)
    base = run_kernel(get_kernel("vadd", n=6), DYNAMATIC,
                      engine="compiled")
    assert (res.cycles, res.transfers, res.verified, res.memory) == (
        base.cycles, base.transfers, base.verified, base.memory,
    )


def test_all_duplicate_lanes_single_simulation():
    """Sixteen identical requests: one lane simulated, sixteen results,
    each owning its memory dict."""
    kernels = [get_kernel("vadd", n=9) for _ in range(16)]
    batch = run_batch(kernels, DYNAMATIC)
    assert len(batch) == 16
    base = run_kernel(get_kernel("vadd", n=9), DYNAMATIC,
                      engine="compiled")
    for res in batch:
        assert (res.cycles, res.memory) == (base.cycles, base.memory)
    assert batch[0].memory is not batch[15].memory


@pytest.mark.parametrize("engine", ENGINES)
def test_generator_input_accepted(engine):
    """A generator expression works as the input sequence."""
    sizes = [5, 7, 5, 11]
    batch = run_batch(
        (get_kernel("vadd", n=n) for n in sizes),
        DYNAMATIC, engine=engine,
    )
    assert [r.kernel for r in batch] == ["vadd"] * len(sizes)
    for res, n in zip(batch, sizes):
        base = run_kernel(get_kernel("vadd", n=n), DYNAMATIC,
                          engine="compiled")
        assert (res.cycles, res.memory) == (base.cycles, base.memory)


@pytest.mark.parametrize("engine", ENGINES)
def test_partial_duplication_is_exact_per_lane(engine):
    """Duplicates mixed with distinct lanes: each deduplicated result
    equals a fresh run_kernel and owns its own memory dict."""
    sizes = [4, 5, 4, 6, 5, 4]
    kernels = [get_kernel("gaussian", n=n) for n in sizes]
    batch = run_batch(kernels, PREVV16, engine=engine)
    for res, n in zip(batch, sizes):
        base = run_kernel(get_kernel("gaussian", n=n), PREVV16,
                          engine=engine)
        got = (res.engine, res.cycles, res.transfers, res.squashes,
               res.squashed_iterations, res.benign_reorders,
               res.fake_tokens, res.violations_by_kind, res.verified,
               res.memory)
        want = (base.engine, base.cycles, base.transfers, base.squashes,
                base.squashed_iterations, base.benign_reorders,
                base.fake_tokens, base.violations_by_kind, base.verified,
                base.memory)
        assert got == want, n
    owners = [id(res.memory) for res in batch]
    assert len(set(owners)) == len(batch)
    batch[2].memory["A"][0] += 1  # mutating a copy leaves its source
    assert batch[0].memory != batch[2].memory


@pytest.mark.parametrize("engine", ENGINES)
def test_mixed_structures_preserve_order(engine):
    """Different circuit structures in one call come back in input
    order, each matching its own sequential run."""
    kernels = [
        get_kernel("vadd"),
        get_kernel("gaussian", n=6),
        get_kernel("vadd", n=13),
        get_kernel("histogram", n=20, buckets=6),
        get_kernel("gaussian", n=6),
    ]
    batch = run_batch(kernels, PREVV16, engine=engine)
    assert [r.kernel for r in batch] == [k.name for k in kernels]
    for res, kernel in zip(batch, kernels):
        base = run_kernel(kernel, PREVV16, engine=engine)
        assert (res.cycles, res.transfers, res.squashes, res.memory) == (
            base.cycles, base.transfers, base.squashes, base.memory,
        )
