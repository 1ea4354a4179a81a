"""Replay every committed corpus entry through the full harness.

The corpus is the fuzzer's long-term memory, and its ``status`` field
carries the contract (see :mod:`repro.fuzz.corpus`):

* ``guard`` entries are fixed (or sabotage-induced) failures — replay
  must be **clean**, so a regression reopens as a red tier-1 test;
* ``open`` entries are real, still-unfixed findings — replay must
  **still fail**, so whoever fixes the model is forced to flip the
  entry to ``guard`` (a silently-passing "known issue" is stale data).
"""

import pytest

from repro.fuzz import (
    check_spec,
    corpus_entries,
    instruction_count,
    validate_spec,
)
from repro.fuzz.corpus import STATUSES

ENTRIES = corpus_entries()


def test_corpus_is_not_empty():
    assert ENTRIES, "tests/fuzz/corpus must hold committed reproducers"


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=lambda e: e.filename
)
def test_entry_metadata_well_formed(entry):
    assert entry.status in STATUSES
    assert entry.filename == f"{entry.spec.name}.json"
    assert entry.reason, "every entry must say why it was committed"
    assert entry.invariant
    validate_spec(entry.spec)
    assert instruction_count(entry.spec) > 0


@pytest.mark.parametrize(
    "entry",
    [e for e in ENTRIES if e.status == "guard"],
    ids=lambda e: e.filename,
)
def test_guard_entry_stays_fixed(entry):
    report = check_spec(entry.spec)
    assert report.ok, (
        f"{entry.filename} regressed: "
        + "; ".join(
            f"{d.config}/{d.engine} {d.invariant}: {d.detail}"
            for d in report.divergences[:4]
        )
    )


@pytest.mark.parametrize(
    "entry",
    [e for e in ENTRIES if e.status == "open"],
    ids=lambda e: e.filename,
)
def test_open_entry_still_reproduces(entry):
    report = check_spec(entry.spec)
    assert not report.ok, (
        f"{entry.filename} no longer fails — the finding is fixed;"
        " flip its status to 'guard' (and update the reason) so the"
        " fix is pinned forever"
    )
    got = {d.invariant for d in report.divergences}
    want = {part.strip() for part in entry.invariant.split(";")}
    assert got & want, (
        f"{entry.filename} now fails differently: recorded"
        f" {sorted(want)}, observed {sorted(got)} — re-shrink and"
        " update the entry"
    )


def test_lint_corpus_usage_error_exits_one(capsys):
    from repro.fuzz.lint_corpus import main

    with pytest.raises(SystemExit) as exc:
        main(["--bogus"])
    assert exc.value.code == 1
