"""Set-up probe: a fresh process that does one workload's set-up and exits.

    python3 perfbench/probe.py clip        # import repro, build and cache the SOCS kernels
    python3 perfbench/probe.py fullchip    # import repro, build the ambit model

It prints ``ready`` when set-up is done; the parent times spawn to that
line, so interpreter start-up and ``import repro`` are included.
"""

import sys
from pathlib import Path


def main(kind: str) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro import LithoConfig, LithographySimulator, ambit_model_for

    if kind == "clip":
        LithographySimulator(LithoConfig.reduced()).prewarm()
    elif kind == "fullchip":
        ambit_model_for(LithoConfig.reduced())
    else:
        print(f"unknown probe {kind!r}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else ""))
