"""The ambit model's memory and disk tiers.

The pin: two fresh interpreters share one cache directory.  Each derives
the reduced-scale ambit model and a 2-iteration one-tile stitched mask
and saves them; the second process's stencils, weights, ambit and mask
must equal the first's bit for bit, however the model reached it.

The tier tests: a disk hit equals a cold build bit for bit, every key
input is a miss, a bad entry or an unwritable directory is a miss and
never a crash or a wrong model, and run.json and the report say which
tier served the parent and each tile's solver.
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.config import GridSpec, LithoConfig, OpticsConfig, OptimizerConfig, ProcessConfig, ResistConfig
from repro.errors import FullChipError
from repro.fullchip import FullChipConfig, FullChipEngine, ambit, model_cache_info
from repro.fullchip.ambit import AmbitModel, lookup_ambit_model
from repro.obs.report import load_run, render_run_report
from repro.workloads.generator import synthetic_canvas

SRC = Path(__file__).resolve().parent.parent / "src"

#: Run in a fresh interpreter: derive the model and a one-tile mask, save both.
_DERIVE = """
import sys

import numpy as np

from repro.config import LithoConfig, OptimizerConfig
from repro.fullchip import FullChipConfig, FullChipEngine, ambit_model_for
from repro.workloads.generator import synthetic_canvas

litho = LithoConfig.reduced()
model = ambit_model_for(litho)
engine = FullChipEngine(
    litho,
    optimizer=OptimizerConfig(max_iterations=2, use_jump=False),
    config=FullChipConfig(backend="numpy"),
)
layout = synthetic_canvas(1024.0, 1024.0, seed=4)
assert engine.plan_for(layout).num_tiles == 1
arrays = {"ambit_px": np.array(model.ambit_px), "mask": engine.solve(layout).mask}
for i, defocus in enumerate(model.defocus_values_nm):
    focus = model.focus_stencils[defocus]
    arrays[f"defocus_{i}"] = np.array(defocus)
    arrays[f"weights_{i}"] = focus.weights
    arrays[f"stencils_{i}"] = focus.stencils
np.savez(sys.argv[1], **arrays)
"""


def derive_in_fresh_process(out: Path, cache_home: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["XDG_CACHE_HOME"] = str(cache_home)
    return subprocess.run(
        [sys.executable, "-c", _DERIVE, str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def two_processes(tmp_path_factory):
    """Two fresh processes, one after the other, on one cache directory."""
    root = tmp_path_factory.mktemp("model_cache_pin")
    cache_home = root / "cache"
    runs = []
    for name in ("first", "second"):
        out = root / f"{name}.npz"
        proc = derive_in_fresh_process(out, cache_home)
        assert proc.returncode == 0, proc.stderr[-2000:]
        with np.load(out, allow_pickle=False) as archive:
            runs.append({key: archive[key] for key in archive.files})
    return runs, cache_home


class TestModelAcrossProcessesPin:
    def test_second_process_gets_the_first_process_bits(self, two_processes):
        (first, second), _ = two_processes
        assert sorted(first) == sorted(second)
        assert int(first["ambit_px"]) > 0
        assert first["mask"].shape == (256, 256)
        for key in first:
            assert first[key].dtype == second[key].dtype, key
            assert np.array_equal(first[key], second[key]), key


# -- the disk tier ---------------------------------------------------------------

PROBE_NM = 1024.0


def tiny_litho(**changes) -> LithoConfig:
    """16 nm/px, 4 kernels: a model that builds in a blink."""
    return LithoConfig(
        grid=GridSpec(shape=(64, 64), pixel_nm=changes.pop("pixel_nm", 16.0)),
        optics=changes.pop("optics", OpticsConfig(num_kernels=4)),
        resist=ResistConfig(),
        process=changes.pop("process", ProcessConfig()),
    )


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch) -> Path:
    """An empty disk tier and an empty memory tier for one test."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setattr(ambit, "_MODEL_CACHE", {})
    monkeypatch.setattr(ambit, "_UNWRITABLE_DIRS", set())
    return tmp_path / "xdg" / "repro"


def forget_memory(monkeypatch) -> None:
    """Drop the memory tier, as a fresh process starts without it."""
    monkeypatch.setattr(ambit, "_MODEL_CACHE", {})


def assert_same_model(actual: AmbitModel, expected: AmbitModel) -> None:
    assert actual.ambit_px == expected.ambit_px
    assert list(actual.focus_stencils) == list(expected.focus_stencils)
    for defocus, focus in expected.focus_stencils.items():
        got = actual.focus_stencils[defocus]
        assert got.defocus_nm == focus.defocus_nm
        for name in ("weights", "stencils"):
            a, b = getattr(got, name), getattr(focus, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert np.array_equal(a, b), f"{name} at {defocus} nm"


def entries(directory: Path):
    return sorted(directory.glob("ambit-*.npz"))


class TestDiskTier:
    def test_cold_build_equals_disk_hit_bitwise(self, cache_dir, monkeypatch, rng):
        litho = tiny_litho()
        before = model_cache_info()
        built, tier = lookup_ambit_model(litho, probe_extent_nm=PROBE_NM)
        assert tier == "built"
        assert len(entries(cache_dir)) == 1
        forget_memory(monkeypatch)
        loaded, tier = lookup_ambit_model(litho, probe_extent_nm=PROBE_NM)
        assert tier == "disk"
        assert loaded is not built
        assert_same_model(loaded, built)
        mask = (rng.random((48, 48)) > 0.5).astype(np.float64)
        assert np.array_equal(
            loaded.simulator_for((48, 48)).aerial(mask),
            built.simulator_for((48, 48)).aerial(mask),
        )
        again, tier = lookup_ambit_model(litho, probe_extent_nm=PROBE_NM)
        assert again is loaded and tier == "memory"
        after = model_cache_info()
        assert after.misses - before.misses == 2
        assert after.hits - before.hits == 1
        assert after.disk_misses - before.disk_misses == 1
        assert after.disk_hits - before.disk_hits == 1

    @pytest.mark.parametrize(
        "change",
        [
            "pixel_nm", "optics", "process", "energy_tol", "probe_extent_nm",
            "version", "code",
        ],
    )
    def test_each_key_input_is_a_disk_miss(self, cache_dir, monkeypatch, change):
        base = dict(litho=tiny_litho(), energy_tol=2e-3, probe_extent_nm=PROBE_NM)
        base_model, _ = lookup_ambit_model(**base)
        varied = dict(base)
        if change == "pixel_nm":
            varied["litho"] = tiny_litho(pixel_nm=8.0)
        elif change == "optics":
            varied["litho"] = tiny_litho(optics=OpticsConfig(num_kernels=4, sigma_outer=0.85))
        elif change == "process":
            varied["litho"] = tiny_litho(process=ProcessConfig(defocus_range_nm=20.0))
        elif change == "energy_tol":
            varied["energy_tol"] = 5e-3
        elif change == "probe_extent_nm":
            varied["probe_extent_nm"] = 2 * PROBE_NM
        elif change == "version":
            monkeypatch.setattr(ambit, "__version__", "0.0.0-edited")
        else:
            monkeypatch.setattr(ambit, "code_fingerprint", lambda: "edited")
        forget_memory(monkeypatch)
        model, tier = lookup_ambit_model(**varied)
        assert tier == "built"
        assert len(entries(cache_dir)) == 2
        if change in ("version", "code"):
            assert_same_model(model, base_model)
        # The earlier entry is still there for the inputs it was built for.
        monkeypatch.undo()
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache_dir.parent))
        forget_memory(monkeypatch)
        assert lookup_ambit_model(**base)[1] == "disk"

    def test_the_code_fingerprint_covers_the_stencil_sources(self, tmp_path):
        package = Path(ambit.__file__).resolve().parent.parent
        copy = tmp_path / "repro"
        shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
        original = ambit._source_fingerprint(copy)
        assert original == ambit.code_fingerprint()
        (copy / "metrics" / "score.py").write_text("# unrelated edit\n", encoding="utf-8")
        assert ambit._source_fingerprint(copy) == original
        for source in ("optics/pupil.py", "fullchip/ambit.py", "config.py", "process/corners.py"):
            path = copy / source
            kept = path.read_bytes()
            path.write_bytes(kept + b"\n# edited\n")
            assert ambit._source_fingerprint(copy) != original, source
            path.write_bytes(kept)
        assert ambit._source_fingerprint(copy) == original


class _MkdirWhenUnpickled:
    """Pickles to a call of ``os.mkdir``: loading it runs code."""

    def __init__(self, path: str) -> None:
        self.path = path

    def __reduce__(self):
        return (os.mkdir, (self.path,))


def corrupt_torn(path: Path) -> None:
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def corrupt_garbage(path: Path) -> None:
    path.write_bytes(b"not an npz archive\n" * 64)


def corrupt_misshapen(path: Path) -> None:
    with np.load(path, allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    arrays["stencils_0"] = arrays["stencils_0"][:, 1:, 1:]
    np.savez(path, **arrays)


def corrupt_missing_focus(path: Path) -> None:
    with np.load(path, allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files if name != "weights_1"}
    np.savez(path, **arrays)


class TestBadEntries:
    """A bad entry is a miss: rebuild, overwrite, never crash, never a wrong model."""

    @pytest.mark.parametrize(
        "corrupt", [corrupt_torn, corrupt_garbage, corrupt_misshapen, corrupt_missing_focus],
        ids=["torn", "unreadable", "misshapen", "missing-focus"],
    )
    def test_bad_entry_is_rebuilt_and_overwritten(self, cache_dir, monkeypatch, caplog, corrupt):
        litho = tiny_litho()
        built, _ = lookup_ambit_model(litho, probe_extent_nm=PROBE_NM)
        (entry,) = entries(cache_dir)
        corrupt(entry)
        forget_memory(monkeypatch)
        with caplog.at_level(logging.WARNING, logger=ambit.__name__):
            model, tier = lookup_ambit_model(litho, probe_extent_nm=PROBE_NM)
        assert tier == "built"
        assert_same_model(model, built)
        assert any("ignoring ambit model cache entry" in r.message for r in caplog.records)
        forget_memory(monkeypatch)
        reread, tier = lookup_ambit_model(litho, probe_extent_nm=PROBE_NM)
        assert tier == "disk"
        assert_same_model(reread, built)

    def test_alien_entry_is_not_served(self, cache_dir, monkeypatch):
        # Same kernel count and focus conditions, so the alien entry is
        # well formed: only its stored key tells it apart.
        other, mine = tiny_litho(), tiny_litho(optics=OpticsConfig(num_kernels=4, sigma_outer=0.85))
        lookup_ambit_model(other, probe_extent_nm=PROBE_NM)
        (other_entry,) = entries(cache_dir)
        my_model, _ = lookup_ambit_model(mine, probe_extent_nm=PROBE_NM)
        (my_entry,) = [p for p in entries(cache_dir) if p != other_entry]
        shutil.copyfile(other_entry, my_entry)  # the other model's bytes, this name
        forget_memory(monkeypatch)
        model, tier = lookup_ambit_model(mine, probe_extent_nm=PROBE_NM)
        assert tier == "built"
        assert_same_model(model, my_model)
        with np.load(my_entry, allow_pickle=False) as archive:
            assert str(archive["key"]) == my_entry.stem[len("ambit-"):]

    def test_pickled_entry_is_not_unpickled(self, cache_dir, monkeypatch, tmp_path):
        litho = tiny_litho()
        built, _ = lookup_ambit_model(litho, probe_extent_nm=PROBE_NM)
        (entry,) = entries(cache_dir)
        with np.load(entry, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        marker = tmp_path / "unpickled"
        arrays["ambit_px"] = np.array([_MkdirWhenUnpickled(str(marker))], dtype=object)
        np.savez(entry, **arrays)
        forget_memory(monkeypatch)
        model, tier = lookup_ambit_model(litho, probe_extent_nm=PROBE_NM)
        assert tier == "built"
        assert_same_model(model, built)
        assert not marker.exists()

    def test_unwritable_directory_stays_in_memory_with_one_warning(
        self, tmp_path, monkeypatch, caplog
    ):
        # Tests may run as root, which writes through any mode bits, so
        # the cache directory sits under a regular file instead.
        blocker = tmp_path / "a-file"
        blocker.write_text("not a directory\n")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker / "xdg"))
        monkeypatch.setattr(ambit, "_MODEL_CACHE", {})
        monkeypatch.setattr(ambit, "_UNWRITABLE_DIRS", set())
        first, second = tiny_litho(), tiny_litho(process=ProcessConfig(defocus_range_nm=20.0))
        with caplog.at_level(logging.WARNING, logger=ambit.__name__):
            assert lookup_ambit_model(first, probe_extent_nm=PROBE_NM)[1] == "built"
            assert lookup_ambit_model(second, probe_extent_nm=PROBE_NM)[1] == "built"
            assert lookup_ambit_model(first, probe_extent_nm=PROBE_NM)[1] == "memory"
        warnings = [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert len(warnings) == 1, [r.message for r in warnings]
        assert "memory only" in warnings[0].message
        assert_same_model(
            lookup_ambit_model(second, probe_extent_nm=PROBE_NM)[0],
            AmbitModel.build(second, probe_extent_nm=PROBE_NM),
        )
        assert blocker.read_text() == "not a directory\n"

    def test_non_finite_setting_still_fails_as_before(self, cache_dir):
        with pytest.raises(FullChipError):
            lookup_ambit_model(tiny_litho(), energy_tol=float("nan"), probe_extent_nm=PROBE_NM)
        assert entries(cache_dir) == []


#: Run in a fresh interpreter: look the tiny model up, print the tier and counters.
_LOOKUP = """
import hashlib
import json

from repro.config import GridSpec, LithoConfig, OpticsConfig, ProcessConfig, ResistConfig
from repro.fullchip import model_cache_info
from repro.fullchip.ambit import lookup_ambit_model

litho = LithoConfig(
    grid=GridSpec(shape=(64, 64), pixel_nm=16.0),
    optics=OpticsConfig(num_kernels=4),
    resist=ResistConfig(),
    process=ProcessConfig(),
)
model, tier = lookup_ambit_model(litho, probe_extent_nm=1024.0)
digest = hashlib.sha256(str(model.ambit_px).encode())
for focus in model.focus_stencils.values():
    digest.update(focus.weights.tobytes())
    digest.update(focus.stencils.tobytes())
print(json.dumps({
    "tier": tier, "cache": model_cache_info().as_dict(), "digest": digest.hexdigest(),
}))
"""


def lookup_env(cache_home: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["XDG_CACHE_HOME"] = str(cache_home)
    return env


class TestAcrossProcesses:
    def test_a_fresh_process_reads_what_an_earlier_one_wrote(self, tmp_path):
        env = lookup_env(tmp_path / "xdg")
        reports = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-c", _LOOKUP], env=env, capture_output=True, text=True, timeout=120
            )
            assert proc.returncode == 0, proc.stderr[-2000:]
            reports.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        first, second = reports
        assert first["tier"] == "built"
        assert first["cache"] == {"hits": 0, "misses": 1, "entries": 1, "disk_hits": 0, "disk_misses": 1}
        assert second["tier"] == "disk"
        assert second["cache"] == {"hits": 0, "misses": 1, "entries": 1, "disk_hits": 1, "disk_misses": 0}
        assert second["digest"] == first["digest"]

    def test_processes_racing_on_an_empty_cache_agree(self, tmp_path):
        # More processes than cores, all missing at once: each builds or
        # reads, none ever reads a torn entry, all end with the same bits.
        env = lookup_env(tmp_path / "xdg")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _LOOKUP], env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for _ in range(4)
        ]
        reports = []
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err[-2000:]
            assert "ignoring ambit model cache entry" not in err
            reports.append(json.loads(out.strip().splitlines()[-1]))
        assert {r["tier"] for r in reports} <= {"built", "disk"}
        assert len({r["digest"] for r in reports}) == 1
        assert [p.name for p in (tmp_path / "xdg" / "repro").iterdir()] == [
            p.name for p in entries(tmp_path / "xdg" / "repro")
        ]
        later = subprocess.run(
            [sys.executable, "-c", _LOOKUP], env=env, capture_output=True, text=True, timeout=120
        )
        report = json.loads(later.stdout.strip().splitlines()[-1])
        assert report["tier"] == "disk" and report["digest"] == reports[0]["digest"]

    def test_threads_racing_on_an_empty_cache_share_one_build(self, cache_dir):
        litho = tiny_litho()
        before = model_cache_info()
        found = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(
                    target=lambda: found.append(lookup_ambit_model(litho, probe_extent_nm=PROBE_NM))
                )
                for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len({id(model) for model, _ in found}) == 1
        assert sorted(tier for _, tier in found) == ["built"] + ["memory"] * 7
        assert model_cache_info().disk_misses - before.disk_misses == 1
        assert len(entries(cache_dir)) == 1


class TestRunRecordsTheTier:
    """run.json and the report say where the parent and each tile's solver got the model."""

    @pytest.mark.parametrize("executor", ["serial", "pool", "queue"])
    def test_tiers_in_run_json(self, cache_dir, tmp_path, executor):
        run_dir = tmp_path / "run"
        result = FullChipEngine(
            tiny_litho(),
            optimizer=OptimizerConfig(max_iterations=2, use_jump=False),
            config=FullChipConfig(
                tile_nm=1024.0,
                probe_extent_nm=PROBE_NM,
                workers=2,
                executor=executor,
                telemetry_dir=str(run_dir),
                queue_lease_s=60.0,
                backend="numpy",
            ),
        ).solve(synthetic_canvas(2048.0, 1024.0, seed=2))
        assert result.all_ok
        assert result.model_tier == "built"
        tiers = [r.model_tier for r in result.tile_results]
        if executor == "queue":
            # Each `repro worker` reads the entry the parent wrote; a
            # worker that solves both tiles has it in memory the second time.
            assert "disk" in tiers and set(tiers) <= {"disk", "memory"}
        else:
            assert tiers == ["memory", "memory"]
        run = load_run(run_dir)
        assert run["model_tier"] == "built"
        assert [tile["model_tier"] for tile in run["tiles"]] == tiers
        assert run["ambit_cache"]["disk_misses"] >= 1
        report = render_run_report(run_dir)
        assert "ambit model: built in the parent" in report
        assert "disk_hits=" in report

    def test_a_second_process_parent_reads_the_disk(self, cache_dir, monkeypatch, tmp_path):
        def run(name):
            engine = FullChipEngine(
                tiny_litho(),
                optimizer=OptimizerConfig(max_iterations=1, use_jump=False),
                config=FullChipConfig(
                    tile_nm=1024.0, probe_extent_nm=PROBE_NM, telemetry_dir=str(tmp_path / name)
                ),
            )
            engine.plan_for(synthetic_canvas(1024.0, 1024.0, seed=2))
            return engine.solve(synthetic_canvas(1024.0, 1024.0, seed=2))

        assert run("first").model_tier == "built"
        forget_memory(monkeypatch)
        second = run("second")
        assert second.model_tier == "disk"
        assert load_run(tmp_path / "second")["model_tier"] == "disk"
        assert "ambit model: disk in the parent" in render_run_report(tmp_path / "second")
        assert run("third").model_tier == "memory"
        assert "ambit model: memory" in run("fourth").format_table()
