"""The differential harness has teeth, and the shrinker makes them sharp.

Two properties anchor the whole fuzzing layer:

* a clean kernel produces a clean report (no false positives — otherwise
  the corpus fills with noise);
* a deliberately sabotaged arbiter is *caught* (the kill-index-check
  mutation disables the Eq. 4 same-index comparison, the exact bug class
  PVSan exists to find), and the failing kernel delta-debugs down to a
  tiny reproducer (≤ 12 IR instructions).
"""

import pytest

from repro.eval.configs import configs_from_names
from repro.fuzz import (
    check_spec,
    generate_spec,
    instruction_count,
    sabotage_kill_index_check,
    shrink_spec,
)

PREVV4 = configs_from_names(["prevv4"])


def test_clean_kernel_clean_report():
    spec = generate_spec(9, 0)
    report = check_spec(spec, configs=PREVV4)
    assert report.ok, [d.to_dict() for d in report.divergences]
    assert report.checks > 0


def test_sabotaged_arbiter_is_caught():
    """kill-index-check on a kernel with a real RAW hazard must produce
    an oracle (or golden-memory) divergence — the harness's teeth."""
    spec = generate_spec(9, 0)
    report = check_spec(
        spec, configs=PREVV4, engines=(),
        mutate=sabotage_kill_index_check,
    )
    assert not report.ok
    invariants = {d.invariant for d in report.divergences}
    assert invariants & {"oracle", "golden-memory"}


def test_sabotage_shrinks_to_tiny_reproducer():
    """The acceptance bar from the issue: the sabotage-induced failure
    minimizes to at most 12 IR instructions."""
    spec = generate_spec(9, 0)

    def still_fails(candidate):
        return not check_spec(
            candidate, configs=PREVV4, engines=(),
            mutate=sabotage_kill_index_check,
        ).ok

    assert still_fails(spec)
    shrunk = shrink_spec(spec, still_fails)
    assert shrunk.final_instructions <= 12
    assert shrunk.final_instructions <= shrunk.original_instructions
    assert still_fails(shrunk.spec)
    assert instruction_count(shrunk.spec) == shrunk.final_instructions


def test_unknown_config_name_rejected():
    with pytest.raises(ValueError, match="unknown config"):
        configs_from_names(["warp9"])


def test_prevv_depth_names_resolve():
    (cfg,) = configs_from_names(["prevv8"])
    assert cfg.prevv_depth == 8
    assert cfg.memory_style == "prevv"
