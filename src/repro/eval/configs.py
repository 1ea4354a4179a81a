"""The four hardware configurations evaluated in the paper.

* ``DYNAMATIC`` — plain Dynamatic [15]: LSQ with group allocation through
  the control network (slow token delivery);
* ``FAST_LSQ``  — Dynamatic plus the fast LSQ-allocation plugin [8];
* ``PREVV16``   — this paper, premature queue depth 16;
* ``PREVV64``   — this paper, premature queue depth 64.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..config import MEMORY_STYLES, HardwareConfig

DYNAMATIC = HardwareConfig(name="dynamatic", memory_style="dynamatic")
FAST_LSQ = HardwareConfig(name="fast_lsq", memory_style="fast")
PREVV16 = HardwareConfig(name="prevv16", memory_style="prevv", prevv_depth=16)
PREVV64 = HardwareConfig(name="prevv64", memory_style="prevv", prevv_depth=64)

#: the paper's column order in Tables I and II
ALL_CONFIGS: List[HardwareConfig] = [DYNAMATIC, FAST_LSQ, PREVV16, PREVV64]

BY_NAME: Dict[str, HardwareConfig] = {c.name: c for c in ALL_CONFIGS}


def prevv_with_depth(depth: int) -> HardwareConfig:
    """A PreVV configuration with an arbitrary premature-queue depth."""
    return HardwareConfig(
        name=f"prevv{depth}", memory_style="prevv", prevv_depth=depth
    )


def configs_from_names(names: Sequence[str]) -> List[HardwareConfig]:
    """Resolve config names, trying for each in turn:

    1. a paper configuration from :data:`BY_NAME` (``prevv16``, ...);
    2. ``prevv<N>`` — PreVV with a depth-N premature queue;
    3. a bare memory style (``prevv``, ``fast``, ...) with every other
       parameter at its :class:`~repro.config.HardwareConfig` default.
    """
    configs = []
    for name in names:
        if name in BY_NAME:
            configs.append(BY_NAME[name])
        elif name.startswith("prevv") and name[5:].isdigit():
            configs.append(prevv_with_depth(int(name[5:])))
        elif name in MEMORY_STYLES:
            configs.append(HardwareConfig(memory_style=name))
        else:
            known = ", ".join(sorted(set(BY_NAME) | set(MEMORY_STYLES)))
            raise ValueError(
                f"unknown config {name!r}; known: {known}, prevv<N>"
            )
    return configs
