"""Pinned quality reference for the benchmark's inputs.

``quality_vs_ref`` divides a run's Eq. 22 quality (without its runtime
term) by the same sum over ``reference_quality.json``, the components
this program produced for the same inputs when the table was written.
Inputs differ between seeds, and PV-band area differs several-fold
between layouts, so an absolute sum would spread with the seed; the
ratio reads 1.0 on unchanged code for every seed and moves only when
masks change.

Regenerate the table (about six minutes on a 2-vCPU host) after a
change that alters masks on purpose, from the root of a checkout::

    python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict

REFERENCE_PATH = Path(__file__).resolve().parent / "reference_quality.json"

#: Canvases the ``fullchip`` workload draws from: two 1024-nm tiles each.
FULLCHIP_CANVASES = tuple(f"synth:2048x1024:{k}" for k in range(1, 5))

_COMPONENTS = ("pv_band_nm2", "epe_violations", "shape_violations")


def components(score) -> Dict[str, float]:
    """The deterministic Eq. 22 components of a ``ScoreBreakdown`` or a
    service job's ``score`` dict (never its runtime or total)."""
    get = score.get if isinstance(score, dict) else lambda k: getattr(score, k)
    return {
        "pv_band_nm2": float(get("pv_band_nm2")),
        "epe_violations": int(get("epe_violations")),
        "shape_violations": int(get("shape_violations")),
    }


def load_reference(path: Path = REFERENCE_PATH) -> Dict[str, Dict[str, Dict]]:
    with open(path) as handle:
        table = json.load(handle)
    for section in ("clip", "fullchip"):
        for spec, entry in table[section].items():
            if sorted(entry) != sorted(_COMPONENTS):
                raise ValueError(f"reference {section}/{spec} lacks {_COMPONENTS}")
    return table


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import repro
    from repro import (
        BENCHMARK_NAMES,
        FullChipConfig,
        FullChipEngine,
        LithoConfig,
        LithographySimulator,
        MosaicFast,
        load_benchmark,
    )
    from repro.workloads.spec import load_workload

    sim = LithographySimulator(LithoConfig.reduced())
    sim.prewarm()
    table: Dict[str, object] = {"repro_version": repro.__version__, "clip": {}, "fullchip": {}}
    for name in BENCHMARK_NAMES:
        result = MosaicFast(LithoConfig.reduced(), simulator=sim).solve(load_benchmark(name))
        table["clip"][name] = components(result.score)
        print("clip", name, table["clip"][name], flush=True)
    for spec in (*BENCHMARK_NAMES, *FULLCHIP_CANVASES):
        engine = FullChipEngine(LithoConfig.reduced(), config=FullChipConfig())
        result = engine.solve(load_workload(spec, allow_paths=False))
        if not result.all_ok:
            raise SystemExit(f"reference solve of {spec} failed tiles {result.failed_tiles}")
        table["fullchip"][spec] = components(result.score)
        print("fullchip", spec, table["fullchip"][spec], flush=True)
    REFERENCE_PATH.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
