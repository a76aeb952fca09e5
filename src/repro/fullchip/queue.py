"""Durable file-backed tile-job queue: leases, fencing tokens, quarantine.

The at-least-once execution substrate behind every forked tile solve
(:class:`~repro.fullchip.executor.QueueWorkerExecutor`): every tile job
becomes durable state under ``<run_dir>/queue/`` so forked local
workers and any number of hand-launched ``repro worker <run-dir>``
processes can claim, solve, and complete tiles — and crash-recover
each other's work — without a coordinator holding anything in memory.

Every run seeds its queue afresh; a resumed run skips finished tiles
through their ``done.npz`` markers (:mod:`repro.fullchip.scheduler`),
not through the queue.  The expiry sweep is the one detector of dead
workers: a worker's renewal thread keeps its lease alive for as long as
the process lives, so a lease lapses when its worker dies, and at once
when the claimant ran on the sweeper's host and its pid is gone.

Layout of a queue directory::

    queue/
      meta.json                  queue-level knobs + the tile roster
      jobs/<tile>.pkl            immutable pickled TileJob payloads
      pending/<tile>.t<N>.json   claim tickets (token N, backoff gate)
      leased/<tile>.t<N>.json    live leases (pid, host, deadline)
      done/<tile>.t<N>.json      terminal records (highest token wins)
      failed/<tile>.t<N>.json
      quarantined/<tile>.t<N>.json
      results/<tile>.t<N>.npz    solved window masks, one per completion
      history/<tile>.jsonl       append-only per-tile incident log

State transitions are single filesystem operations, so every race has
exactly one winner:

* **claim** — ``os.rename(pending/<tile>.t<N>.json, leased/…)``.  POSIX
  rename succeeds for exactly one claimant; losers see ``FileNotFound``
  and move on.  The winner then rewrites the lease atomically with its
  pid/host/deadline.
* **renew** — atomic rewrite of the worker's own lease file with a new
  deadline, from the worker's renewal thread and heartbeat pulses.
* **expire/requeue** — any sweeper (a worker between claims, or the
  parent supervisor) that finds an expired lease first creates
  ``pending/<tile>.t<N+1>.json`` with ``O_EXCL`` (one winner → one
  incident), appends the ``requeued`` history line, *then* unlinks the
  stale lease.  A crash between the two steps leaves a harmless stale
  lease that the next sweep clears.
* **commit (fencing)** — the worker checks that it still holds its
  lease (the lease file names its pid, host and claim time; a fresh
  seed restarts tokens, so the path alone proves nothing), writes the
  result npz, creates its *token-named* terminal record with
  ``O_EXCL``, and only then unlinks the lease.  The lease outlives
  the terminal write, so a worker killed at any instant leaves either
  a live lease (expires → requeue) or a settled tile behind a zombie
  lease (cleared by the next sweep) — never a tile with no state at
  all.  A stale worker whose lease was swept from under it fails the
  lease check and its late result is discarded; if terminal records
  from two generations ever land anyway (the narrow check-vs-sweep
  window), the reader resolves the race: the fencing token ``N`` is
  baked into every terminal filename and
  :meth:`TileJobQueue.terminal_record` always returns the **highest
  token**, so a re-run's result cannot be clobbered.

Tokens double as the requeue counter: a job on token ``N`` has been
requeued ``N`` times.  Expiry beyond ``max_requeues`` quarantines the
tile (a poison tile that keeps killing workers), which surfaces as a
failed :class:`~repro.fullchip.scheduler.TileResult` and falls back to
the rasterized target like any other failure.
"""

from __future__ import annotations

import json
import logging
import os
import pickle
import socket
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..errors import FullChipError
from ..utils.hashing import stable_json_dumps
from ..utils.io import write_json_atomic, write_npz_atomic

logger = logging.getLogger(__name__)

__all__ = [
    "QUEUE_DIRNAME",
    "QueueConfig",
    "LeaseRecord",
    "ClaimedJob",
    "TileJobQueue",
    "load_queue_state",
]

#: The queue lives in this subdirectory of a run directory.
QUEUE_DIRNAME = "queue"

META_FILENAME = "meta.json"
JOBS_DIRNAME = "jobs"
PENDING_DIRNAME = "pending"
LEASED_DIRNAME = "leased"
DONE_DIRNAME = "done"
FAILED_DIRNAME = "failed"
QUARANTINED_DIRNAME = "quarantined"
RESULTS_DIRNAME = "results"
HISTORY_DIRNAME = "history"

#: Terminal state directories, in read-back precedence order.
_TERMINAL_DIRS = (DONE_DIRNAME, FAILED_DIRNAME, QUARANTINED_DIRNAME)


@dataclass(frozen=True)
class QueueConfig:
    """Durability knobs of one queue (persisted into ``meta.json``).

    Attributes:
        lease_s: lease duration; a lease not renewed within this window
            is expired and its job requeued.
        max_requeues: lease expiries tolerated per tile before the tile
            is quarantined (solve *failures* are terminal immediately —
            the in-worker retry loop already covers transient faults).
        backoff_s: base of the exponential requeue backoff; requeue
            ``N`` becomes claimable after ``backoff_s * 2**(N-1)``.
    """

    lease_s: float = 30.0
    max_requeues: int = 2
    backoff_s: float = 0.5

    def __post_init__(self) -> None:
        if self.lease_s <= 0:
            raise FullChipError(f"lease_s must be positive, got {self.lease_s}")
        if self.max_requeues < 0:
            raise FullChipError(
                f"max_requeues must be >= 0, got {self.max_requeues}"
            )
        if self.backoff_s < 0:
            raise FullChipError(f"backoff_s must be >= 0, got {self.backoff_s}")


@dataclass
class LeaseRecord:
    """One claimed job's lease state (the content of a leased file)."""

    tile: str
    index: Tuple[int, int]
    token: int
    pid: int = 0
    host: str = ""
    claimed_at: float = 0.0
    deadline: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "tile": self.tile,
            "index": list(self.index),
            "token": self.token,
            "pid": self.pid,
            "host": self.host,
            "claimed_at": self.claimed_at,
            "deadline": self.deadline,
        }


@dataclass
class ClaimedJob:
    """A claim winner's handle: the lease plus the unpickled job payload."""

    lease: LeaseRecord
    job: object  # a TileJob; typed loosely to avoid an import cycle

    @property
    def tile(self) -> str:
        return self.lease.tile

    @property
    def token(self) -> int:
        return self.lease.token

    @property
    def attempt(self) -> int:
        """1-based attempt number across requeues (token 0 → attempt 1)."""
        return self.lease.token + 1


def _entry_name(tile: str, token: int) -> str:
    return f"{tile}.t{token}.json"


def _parse_entry_name(name: str) -> Optional[Tuple[str, int]]:
    """``<tile>.t<token>.json`` → (tile, token); None when alien."""
    if not name.endswith(".json"):
        return None
    stem = name[: -len(".json")]
    tile, sep, token_part = stem.rpartition(".t")
    if not sep or not tile or not token_part.isdigit():
        return None
    return tile, int(token_part)


class TileJobQueue:
    """One durable queue rooted at ``<run_dir>/queue/``.

    Use :meth:`create` to seed a fresh queue from a job list and
    :meth:`open` to attach a worker to an existing queue directory.
    """

    def __init__(
        self,
        root: Union[str, Path],
        config: QueueConfig,
        trace_id: Optional[str] = None,
    ) -> None:
        self.root = Path(root)
        self.config = config
        self.trace_id = trace_id
        self._now = time.time

    # -- construction ------------------------------------------------------

    @classmethod
    def create(
        cls,
        root: Union[str, Path],
        jobs: Dict[str, Tuple[Tuple[int, int], object]],
        config: Optional[QueueConfig] = None,
        trace_id: Optional[str] = None,
    ) -> "TileJobQueue":
        """Seed a fresh queue with jobs (``{tile: (index, TileJob)}``).

        Any previous queue state at ``root`` is wiped first: every run
        seeds its queue afresh, and a resumed run's finished tiles are
        skipped through their done markers, not through the queue.
        """
        root = Path(root)
        config = config or QueueConfig()
        queue = cls(root, config, trace_id=trace_id)
        if root.is_dir():
            import shutil

            shutil.rmtree(root)
        for sub in (
            JOBS_DIRNAME, PENDING_DIRNAME, LEASED_DIRNAME, DONE_DIRNAME,
            FAILED_DIRNAME, QUARANTINED_DIRNAME, RESULTS_DIRNAME,
            HISTORY_DIRNAME,
        ):
            (root / sub).mkdir(parents=True, exist_ok=True)
        write_json_atomic(
            root / META_FILENAME,
            {
                "schema": 1,
                "kind": "fullchip_queue",
                "lease_s": config.lease_s,
                "max_requeues": config.max_requeues,
                "backoff_s": config.backoff_s,
                "trace_id": trace_id,
                "tiles": {tile: list(index) for tile, (index, _) in jobs.items()},
            },
        )
        for tile, (index, job) in jobs.items():
            job_path = root / JOBS_DIRNAME / f"{tile}.pkl"
            fd, tmp = tempfile.mkstemp(dir=root / JOBS_DIRNAME, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(job, handle, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, job_path)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
            queue._write_ticket(tile, index, token=0, not_before=0.0)
            queue._history(tile, "seeded", token=0)
        return queue

    @classmethod
    def open(cls, root: Union[str, Path]) -> "TileJobQueue":
        """Attach to an existing queue directory (reads ``meta.json``)."""
        root = Path(root)
        meta_path = root / META_FILENAME
        if not meta_path.is_file():
            raise FullChipError(f"no {META_FILENAME} under {root} — not a queue dir")
        try:
            with open(meta_path) as handle:
                meta = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise FullChipError(f"unreadable {meta_path}: {exc}") from exc
        default = QueueConfig()
        config = QueueConfig(
            lease_s=float(meta.get("lease_s", default.lease_s)),
            max_requeues=int(meta.get("max_requeues", default.max_requeues)),
            backoff_s=float(meta.get("backoff_s", default.backoff_s)),
        )
        raw_trace = meta.get("trace_id")
        return cls(root, config, trace_id=str(raw_trace) if raw_trace else None)

    # -- small path/state helpers ------------------------------------------

    def _dir(self, name: str) -> Path:
        return self.root / name

    def tiles(self) -> Dict[str, Tuple[int, int]]:
        """The tile roster from ``meta.json`` (name → plan index)."""
        try:
            with open(self.root / META_FILENAME) as handle:
                meta = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return {}
        return {
            str(name): (int(index[0]), int(index[1]))
            for name, index in (meta.get("tiles") or {}).items()
        }

    def terminal_record(self, tile: str) -> Optional[Dict[str, object]]:
        """The tile's winning terminal record (done/failed/quarantined).

        Terminal records are token-named, so two generations racing
        through the sweep-vs-commit window each land their own file and
        the race is resolved here, at read time: the **highest token**
        wins (ties broken by done > failed > quarantined), with
        unreadable records skipped in favor of the next-best.
        """
        candidates: List[Tuple[int, int, Path, str]] = []
        for rank, sub in enumerate(_TERMINAL_DIRS):
            for path in self._dir(sub).glob(f"{tile}.t*.json"):
                parsed = _parse_entry_name(path.name)
                if parsed is not None and parsed[0] == tile:
                    candidates.append((parsed[1], -rank, path, sub))
        for _token, _rank, path, sub in sorted(candidates, reverse=True):
            try:
                with open(path) as handle:
                    record = json.load(handle)
            except (OSError, json.JSONDecodeError):
                continue
            record.setdefault("state", sub)
            return record
        return None

    def drained(self) -> bool:
        """Every tile in the roster has reached a terminal record."""
        return all(
            self.terminal_record(tile) is not None for tile in self.tiles()
        )

    def load_job(self, tile: str) -> object:
        """Unpickle a tile's immutable job payload."""
        path = self._dir(JOBS_DIRNAME) / f"{tile}.pkl"
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError) as exc:
            raise FullChipError(f"unreadable job payload {path}: {exc}") from exc

    def _write_ticket(
        self, tile: str, index: Tuple[int, int], token: int, not_before: float
    ) -> None:
        write_json_atomic(
            self._dir(PENDING_DIRNAME) / _entry_name(tile, token),
            {
                "tile": tile,
                "index": list(index),
                "token": token,
                "not_before": not_before,
            },
        )

    def _history(self, tile: str, kind: str, **fields: object) -> None:
        """Append one incident line to the tile's history JSONL.

        Single ``O_APPEND`` write of one short line — atomic on POSIX
        for writes below PIPE_BUF, so concurrent sweepers never tear
        each other's lines.  History is diagnostics: failures are
        logged, never raised.
        """
        record = {"ts": self._now(), "tile": tile, "kind": kind,
                  "pid": os.getpid(), **fields}
        if self.trace_id:
            record.setdefault("trace_id", self.trace_id)
        line = stable_json_dumps(record, non_finite="allow")
        try:
            path = self._dir(HISTORY_DIRNAME) / f"{tile}.jsonl"
            with open(path, "a") as handle:
                handle.write(line + "\n")
        except OSError as exc:
            logger.warning("queue history append failed for %s: %s", tile, exc)

    def history(self, tile: str) -> List[Dict[str, object]]:
        """The tile's incident lines, oldest first (bad lines skipped)."""
        path = self._dir(HISTORY_DIRNAME) / f"{tile}.jsonl"
        records: List[Dict[str, object]] = []
        try:
            with open(path) as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        records.append(json.loads(line))
                    except json.JSONDecodeError:
                        continue
        except OSError:
            return []
        return records

    # -- claim / renew ------------------------------------------------------

    def claim(self) -> Optional[ClaimedJob]:
        """Claim one ready pending ticket; None when nothing is claimable.

        Tickets gated by a backoff ``not_before`` in the future are
        skipped; tickets for tiles that already reached a terminal
        record are garbage-collected instead of claimed.
        """
        now = self._now()
        pending_dir = self._dir(PENDING_DIRNAME)
        tickets: List[Tuple[str, str, int]] = []
        try:
            names = sorted(os.listdir(pending_dir))
        except OSError:
            return None
        for name in names:
            parsed = _parse_entry_name(name)
            if parsed is not None:
                tickets.append((name, parsed[0], parsed[1]))
        for name, tile, token in tickets:
            ticket_path = pending_dir / name
            if self.terminal_record(tile) is not None:
                try:
                    os.unlink(ticket_path)
                except FileNotFoundError:
                    pass
                continue
            try:
                with open(ticket_path) as handle:
                    ticket = json.load(handle)
            except (OSError, json.JSONDecodeError):
                continue  # racing claimant took it, or torn write settling
            if float(ticket.get("not_before", 0.0)) > now:
                continue
            lease_path = self._dir(LEASED_DIRNAME) / name
            try:
                os.rename(ticket_path, lease_path)
            except FileNotFoundError:
                continue  # exactly one winner; we lost this ticket
            except OSError as exc:
                logger.warning("claim rename failed for %s: %s", name, exc)
                continue
            index = ticket.get("index") or [0, 0]
            lease = LeaseRecord(
                tile=tile,
                index=(int(index[0]), int(index[1])),
                token=token,
                pid=os.getpid(),
                host=socket.gethostname(),
                claimed_at=now,
                deadline=now + self.config.lease_s,
            )
            try:
                write_json_atomic(lease_path, lease.as_dict())
            except OSError as exc:
                logger.warning("lease write failed for %s: %s", name, exc)
            self._history(tile, "leased", token=token)
            return ClaimedJob(lease=lease, job=self.load_job(tile))
        return None

    def lease_exists(self, lease: LeaseRecord) -> bool:
        """Whether this claim's lease file still holds this claim.

        The file must name this claimant: the same pid, host and claim
        time.  A path alone is not enough, because a fresh seed restarts
        tokens at 0, so a claim made before the seed would pass the new
        queue's fence under the new claimant's lease.  A claim whose own
        lease write failed never holds its lease; expiry recovers it.
        """
        path = self._dir(LEASED_DIRNAME) / _entry_name(lease.tile, lease.token)
        try:
            with open(path) as handle:
                held = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return False
        return (
            held.get("pid") == lease.pid
            and held.get("host") == lease.host
            and held.get("claimed_at") == lease.claimed_at
        )

    def renew(self, lease: LeaseRecord) -> bool:
        """Extend a held lease's deadline; False when not extended.

        False means the on-disk deadline is still ticking: either the
        lease file no longer holds this claim (a sweeper expired and
        requeued the job from under this worker, or the queue was
        seeded afresh — the commit will lose the fence) or the rewrite
        itself failed (transient ``OSError``; the caller can
        distinguish via :meth:`lease_exists` and retry).  (The
        check-then-write window can briefly resurrect a just-swept
        lease file; the highest-token rule at commit time keeps that
        harmless.)
        """
        if not self.lease_exists(lease):
            return False
        path = self._dir(LEASED_DIRNAME) / _entry_name(lease.tile, lease.token)
        deadline = self._now() + self.config.lease_s
        try:
            write_json_atomic(
                path, {**lease.as_dict(), "deadline": deadline}
            )
        except OSError as exc:
            logger.warning("lease renew failed for %s: %s", lease.tile, exc)
            return False
        lease.deadline = deadline
        return True

    # -- expiry sweep -------------------------------------------------------

    @staticmethod
    def _pid_alive(pid: int) -> bool:
        if pid <= 0:
            return False
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except OSError:
            return True
        return True

    def sweep_expired(
        self, heartbeat_dir: Optional[Union[str, Path]] = None
    ) -> List[Dict[str, object]]:
        """Requeue (or quarantine) every expired lease; return incidents.

        A lease is expired when its deadline has passed, or — faster —
        when it was taken by a process on *this* host whose pid is gone
        (a crashed worker; no need to wait out the lease).  A lease
        whose deadline passed but whose claimant is *verifiably alive*
        on this host gets a grace extension (two extra lease terms past
        the deadline) before it is treated as lost — a live local
        worker that merely missed a renewal window (renewal write
        hiccup, a wedged renewal thread) is not a dead one.  Each
        incident is also appended to the tile's history, and the stale
        ``heartbeat_<tile>.json`` from the dead attempt is removed so
        the watchdog doesn't flag the re-run against old pulses.
        """
        now = self._now()
        incidents: List[Dict[str, object]] = []
        leased_dir = self._dir(LEASED_DIRNAME)
        try:
            names = sorted(os.listdir(leased_dir))
        except OSError:
            return incidents
        for name in names:
            parsed = _parse_entry_name(name)
            if parsed is None:
                continue
            tile, token = parsed
            lease_path = leased_dir / name
            if self.terminal_record(tile) is not None:
                # A zombie lease left behind a settled tile: just clear it.
                try:
                    os.unlink(lease_path)
                except FileNotFoundError:
                    pass
                continue
            if self._newer_generation_exists(tile, token):
                # A stale lower-generation lease behind a live higher
                # generation (a sweeper crashed between writing the
                # replacement ticket and unlinking this lease): clear
                # it without an incident — requeueing it again would
                # mint a duplicate generation.
                self._unlink_lease(tile, token)
                continue
            try:
                with open(lease_path) as handle:
                    lease = json.load(handle)
            except (OSError, json.JSONDecodeError):
                continue
            deadline = lease.get("deadline")
            if deadline is None:
                # Claim crashed between rename and lease rewrite: the
                # file still holds the ticket payload.  Rename bumps
                # ctime, so ctime + lease_s bounds the orphan's life.
                try:
                    deadline = os.stat(lease_path).st_ctime + self.config.lease_s
                except OSError:
                    continue
            pid = int(lease.get("pid", 0) or 0)
            host = str(lease.get("host", ""))
            local = pid > 0 and host == socket.gethostname()
            dead = local and not self._pid_alive(pid)
            if float(deadline) > now and not dead:
                continue
            if not dead and local:
                # Deadline passed but the claimant is verifiably alive
                # here: grant a bounded grace (the bound also caps the
                # damage of a recycled pid masquerading as the worker).
                if now < float(deadline) + 2.0 * self.config.lease_s:
                    continue
                reason = "lease expired (live pid outlasted grace)"
            else:
                reason = "worker died" if dead else "lease expired"
            incident = self._expire_one(tile, token, lease, reason)
            if incident is not None:
                incidents.append(incident)
                if heartbeat_dir is not None:
                    from ..obs.live import heartbeat_filename

                    try:
                        os.unlink(Path(heartbeat_dir) / heartbeat_filename(tile))
                    except FileNotFoundError:
                        pass
                    except OSError as exc:
                        logger.warning(
                            "stale heartbeat cleanup failed for %s: %s", tile, exc
                        )
        return incidents

    def _newer_generation_exists(self, tile: str, token: int) -> bool:
        """Any pending ticket or lease for this tile with a higher token."""
        for sub in (PENDING_DIRNAME, LEASED_DIRNAME):
            for path in self._dir(sub).glob(f"{tile}.t*.json"):
                parsed = _parse_entry_name(path.name)
                if parsed is not None and parsed[0] == tile and parsed[1] > token:
                    return True
        return False

    def _expire_one(
        self, tile: str, token: int, lease: Dict[str, object], reason: str
    ) -> Optional[Dict[str, object]]:
        """Requeue or quarantine one expired lease; None when we lost."""
        index = lease.get("index") or [0, 0]
        index = (int(index[0]), int(index[1]))
        next_token = token + 1
        if next_token > self.config.max_requeues:
            record = {
                "tile": tile,
                "index": list(index),
                "token": token,
                "status": "quarantined",
                "requeues": token,
                "error": (
                    f"quarantined after {token + 1} lease expiries "
                    f"(max_requeues={self.config.max_requeues}): {reason}"
                ),
                "ts": self._now(),
            }
            quarantine_path = self._dir(QUARANTINED_DIRNAME) / _entry_name(
                tile, token
            )
            if not self._write_exclusive(quarantine_path, record):
                # Another sweeper won the incident (or a predecessor
                # crashed after writing the record): make sure the
                # stale lease does not outlive it.  Only safe when the
                # record really exists — an OSError-failed write must
                # keep the lease as the tile's recoverable state.
                if quarantine_path.is_file():
                    self._unlink_lease(tile, token)
                return None
            self._history(tile, "quarantined", token=token, reason=reason)
            self._unlink_lease(tile, token)
            incident = {"kind": "job_quarantined", **record}
            logger.warning("queue: tile %s quarantined (%s)", tile, reason)
            return incident
        backoff = self.config.backoff_s * (2 ** (next_token - 1))
        ticket_path = self._dir(PENDING_DIRNAME) / _entry_name(tile, next_token)
        ticket = {
            "tile": tile,
            "index": list(index),
            "token": next_token,
            "not_before": self._now() + backoff,
        }
        if not self._write_exclusive(ticket_path, ticket):
            # Another sweeper already requeued this generation (or a
            # predecessor crashed after writing the ticket): clear the
            # stale lease so it cannot later mint a duplicate
            # generation.  Only safe when the ticket really exists — an
            # OSError-failed write must keep the lease as the tile's
            # only recoverable state.
            if ticket_path.is_file():
                self._unlink_lease(tile, token)
            return None
        self._history(
            tile, "requeued", token=next_token, reason=reason, backoff_s=backoff
        )
        self._unlink_lease(tile, token)
        logger.warning(
            "queue: tile %s requeued (token %d, %s, backoff %.2fs)",
            tile, next_token, reason, backoff,
        )
        return {
            "kind": "job_requeued",
            "tile": tile,
            "index": list(index),
            "token": next_token,
            "reason": reason,
            "backoff_s": backoff,
            "stale_pid": int(lease.get("pid", 0) or 0),
        }

    def _unlink_lease(self, tile: str, token: int) -> None:
        try:
            os.unlink(self._dir(LEASED_DIRNAME) / _entry_name(tile, token))
        except FileNotFoundError:
            pass
        except OSError as exc:
            logger.warning("stale lease unlink failed for %s: %s", tile, exc)

    @staticmethod
    def _write_exclusive(path: Path, payload: Dict[str, object]) -> bool:
        """Create-or-lose: write ``path`` only if it does not exist yet."""
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        except FileExistsError:
            return False
        except OSError as exc:
            logger.warning("exclusive write failed for %s: %s", path, exc)
            return False
        with os.fdopen(fd, "w") as handle:
            handle.write(stable_json_dumps(payload, indent=2, non_finite="allow"))
            handle.write("\n")
        return True

    # -- commit (fenced) ----------------------------------------------------

    def complete(
        self,
        claim: ClaimedJob,
        mask: Optional[np.ndarray],
        meta: Dict[str, object],
    ) -> bool:
        """Commit a successful solve; False when this claim lost the fence."""
        return self._commit(claim, DONE_DIRNAME, "done", mask, meta)

    def fail(self, claim: ClaimedJob, meta: Dict[str, object]) -> bool:
        """Commit a terminal solve failure (fence-checked like success)."""
        return self._commit(claim, FAILED_DIRNAME, "failed", None, meta)

    def _commit(
        self,
        claim: ClaimedJob,
        terminal_dir: str,
        kind: str,
        mask: Optional[np.ndarray],
        meta: Dict[str, object],
    ) -> bool:
        tile, token = claim.tile, claim.token
        # Fence check: the lease file must still hold this claim.  If a
        # sweeper requeued this generation, or the queue was seeded
        # afresh, it does not, and this (stale) result must be
        # discarded — the re-run owns the tile now.  The
        # lease itself is NOT consumed yet: it must outlive the result
        # and terminal writes below, so a worker crashing anywhere in
        # this function leaves a recoverable lease, never a tile with
        # no pending ticket, no lease, and no terminal record.
        if not self.lease_exists(claim.lease):
            self._history(tile, "discarded", token=token, reason="lost lease fence")
            logger.warning(
                "queue: tile %s token %d commit discarded (lease revoked)",
                tile, token,
            )
            return False
        existing = self.terminal_record(tile)
        if existing is not None and int(existing.get("token", -1)) > token:
            # A higher generation already settled (sweep-vs-commit
            # window); our stale result loses by token order.
            self._history(
                tile, "discarded", token=token, reason="newer result committed"
            )
            return False
        result_file: Optional[str] = None
        if mask is not None:
            result_file = f"{tile}.t{token}.npz"
            self._write_result_npz(
                self._dir(RESULTS_DIRNAME) / result_file, mask
            )
        record = {
            "tile": tile,
            "index": list(claim.lease.index),
            "token": token,
            "requeues": token,
            "result_file": result_file,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "ts": self._now(),
            **meta,
        }
        # The terminal record is token-named and O_EXCL: one writer per
        # generation, and racing generations each land their own file —
        # terminal_record() resolves highest-token-wins at read time,
        # so a stale lower-token record landing last changes nothing.
        if not self._write_exclusive(
            self._dir(terminal_dir) / _entry_name(tile, token), record
        ):
            self._history(
                tile, "discarded", token=token, reason="duplicate commit"
            )
            return False
        self._history(tile, kind, token=token)
        # Release the fence.  Losing this unlink (swept in the narrow
        # window since the check above) is harmless now: our record is
        # durable and the sweep's replacement ticket will be garbage-
        # collected against it by the next claim() pass.
        try:
            os.unlink(self._dir(LEASED_DIRNAME) / _entry_name(tile, token))
        except FileNotFoundError:
            logger.warning(
                "queue: tile %s token %d was swept mid-commit; the "
                "committed record stands", tile, token,
            )
        # Garbage-collect stale artifacts of older generations: tickets
        # that would trigger pointless re-solves, superseded terminal
        # records, and superseded masks.
        for sub in (PENDING_DIRNAME,) + _TERMINAL_DIRS:
            for path in self._dir(sub).glob(f"{tile}.t*.json"):
                parsed = _parse_entry_name(path.name)
                if parsed is None or parsed[0] != tile:
                    continue
                cutoff = token if sub == PENDING_DIRNAME else token - 1
                if parsed[1] <= cutoff:
                    try:
                        os.unlink(path)
                    except FileNotFoundError:
                        pass
        for path in self._dir(RESULTS_DIRNAME).glob(f"{tile}.t*.npz"):
            stem_token = _parse_entry_name(path.name[: -len(".npz")] + ".json")
            if stem_token is not None and stem_token[1] < token:
                try:
                    os.unlink(path)
                except FileNotFoundError:
                    pass
        return True

    @staticmethod
    def _write_result_npz(path: Path, mask: np.ndarray) -> None:
        write_npz_atomic(path, mask=np.asarray(mask, dtype=np.float64))

    def load_result_mask(self, record: Dict[str, object]) -> Optional[np.ndarray]:
        """The mask committed with a done record (None when absent/torn)."""
        result_file = record.get("result_file")
        if not result_file:
            return None
        path = self._dir(RESULTS_DIRNAME) / str(result_file)
        try:
            with np.load(path, allow_pickle=False) as archive:
                return np.asarray(archive["mask"], dtype=np.float64)
        except Exception as exc:  # noqa: BLE001 - torn/missing → caller decides
            logger.warning("queue result %s unreadable: %s", path, exc)
            return None

    # -- introspection ------------------------------------------------------

    def last_activity_ts(self) -> float:
        """Latest wall-clock signal of queue life, for abandonment checks.

        The maximum of every history line's timestamp and every pending
        ticket's ``not_before`` gate (a backoff-parked ticket is
        "active" until it becomes claimable), falling back to the
        ``meta.json`` mtime for a queue with no recorded activity.
        """
        latest = 0.0
        for tile in self.tiles():
            for line in self.history(tile):
                try:
                    latest = max(latest, float(line.get("ts", 0.0) or 0.0))
                except (TypeError, ValueError):
                    continue
        for path in self._dir(PENDING_DIRNAME).glob("*.json"):
            try:
                with open(path) as handle:
                    ticket = json.load(handle)
                latest = max(latest, float(ticket.get("not_before", 0.0) or 0.0))
            except (OSError, json.JSONDecodeError, TypeError, ValueError):
                continue
        if latest <= 0.0:
            try:
                latest = os.stat(self.root / META_FILENAME).st_mtime
            except OSError:
                pass
        return latest

    def counts(self) -> Dict[str, int]:
        """Live state counts over the queue directory."""
        counts = {
            "total": len(self.tiles()),
            "pending": 0,
            "leased": 0,
            "done": 0,
            "failed": 0,
            "quarantined": 0,
        }
        # Terminal records are token-named and may briefly coexist
        # across generations/dirs; attribute each tile to its winning
        # record (highest token, dir precedence on ties) exactly once.
        best: Dict[str, Tuple[int, int, str]] = {}
        for rank, (sub, key) in enumerate(
            (
                (DONE_DIRNAME, "done"),
                (FAILED_DIRNAME, "failed"),
                (QUARANTINED_DIRNAME, "quarantined"),
            )
        ):
            for path in self._dir(sub).glob("*.json"):
                parsed = _parse_entry_name(path.name)
                if parsed is None:
                    continue
                tile, token = parsed
                if tile not in best or (token, -rank) > best[tile][:2]:
                    best[tile] = (token, -rank, key)
        seen = set(best)
        for _token, _rank, key in best.values():
            counts[key] += 1
        # A claim renames a ticket from pending/ to leased/ between the
        # two directory scans, so one tile can show up in both: count
        # each tile once.
        for sub, key in ((PENDING_DIRNAME, "pending"), (LEASED_DIRNAME, "leased")):
            for path in self._dir(sub).glob("*.json"):
                parsed = _parse_entry_name(path.name)
                if parsed is not None and parsed[0] not in seen:
                    seen.add(parsed[0])
                    counts[key] += 1
        return counts


def load_queue_state(run_dir: Union[str, Path]) -> Optional[Dict[str, object]]:
    """Read-only queue snapshot for ``repro watch`` / ``repro report``.

    Accepts a run directory (containing ``queue/``) or a queue directory
    itself; returns None when neither holds a queue.  Everything comes
    from the queue directory alone — counts, per-tile state, attempts
    (requeue generation + 1), and the per-tile incident history.
    """
    root = Path(run_dir)
    if not (root / META_FILENAME).is_file():
        root = root / QUEUE_DIRNAME
        if not (root / META_FILENAME).is_file():
            return None
    try:
        queue = TileJobQueue.open(root)
    except FullChipError:
        return None
    tiles: List[Dict[str, object]] = []
    requeued_total = 0
    for tile, index in sorted(queue.tiles().items()):
        history = queue.history(tile)
        requeues = sum(1 for h in history if h.get("kind") == "requeued")
        requeued_total += requeues
        record = queue.terminal_record(tile)
        if record is not None:
            state = str(record.get("state", "done"))
            token = int(record.get("token", 0))
        else:
            state = "pending"
            token = 0
            for sub, name in ((LEASED_DIRNAME, "leased"), (PENDING_DIRNAME, "pending")):
                entries = [
                    _parse_entry_name(p.name)
                    for p in (root / sub).glob(f"{tile}.t*.json")
                ]
                entries = [e for e in entries if e is not None]
                if entries:
                    state = name
                    token = max(t for _, t in entries)
                    break
        tiles.append(
            {
                "name": tile,
                "index": list(index),
                "state": state,
                "attempts": token + 1,
                "requeues": requeues,
                "history": [
                    {"kind": h.get("kind"), "token": h.get("token"),
                     "ts": h.get("ts"), "reason": h.get("reason")}
                    for h in history
                ],
            }
        )
    counts = queue.counts()
    counts["requeued"] = requeued_total
    return {
        "schema": 1,
        "kind": "fullchip_queue",
        "dir": str(root),
        "lease_s": queue.config.lease_s,
        "max_requeues": queue.config.max_requeues,
        "backoff_s": queue.config.backoff_s,
        "counts": counts,
        "tiles": tiles,
    }
