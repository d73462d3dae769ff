"""One durable-artifact store for every cached numpy artifact.

Traces, frontend plans and the replacement pre-pass are derived data: expensive to build, cheap to reload, safe to delete.
Each of those modules only *declares* what it persists — its array
fields, its scalar metadata, a ``from_parts`` validator and a builder —
and one :class:`ArtifactStore` per kind owns how:

* residency: a plan or pre-pass lives as long as a trace that uses it
  (:meth:`ArtifactStore.for_trace`), shared meanwhile by traces with
  equal content through a weak-valued memo guarded by a lock (the sweep
  service runs several simulation threads over the same stores);
* the cache directory (relocated by the kind's ``REPRO_*_CACHE``
  variable) and entry naming: ``<name>.npz`` plus ``<name>.mmap/``;
* the lookup ladder: mmap sidecar, then npz, then build;
* writes: the ``.npz`` is deflated at zlib level 1 (:func:`write_npz`)
  and goes through a temp file unique to the writer and one rename, so
  concurrent readers never see a partial entry and concurrent writers
  never share a temp name; a failed write leaves no temp file behind;
* the *mmap sidecar*: npz members live in a zip archive and cannot be
  memory-mapped, so every saved entry also gets an uncompressed
  ``<name>.mmap/`` directory of raw ``.npy`` files plus a ``meta.json``
  written last, as the commit marker.  The meta carries the artifact's
  own metadata (fingerprint included, where the kind has one) plus the
  size and sha1 of the npz it was derived from; a sidecar is served
  through ``np.load(mmap_mode="r")`` only while the npz still matches,
  so N sweep workers share one page cache and a regenerated npz is
  never shadowed by an old sidecar.  A writer keeps a sidecar another
  writer committed from the same npz; one it must replace it renames
  aside first, so a valid sidecar is missing only between two renames
  (see :func:`_commit_dir`), and readers then fall back to the npz;
* discard of anything corrupt or stale (unreadable files, or an entry
  whose fingerprint or length is not the one asked for) followed by a
  rebuild, and repair of a missing sidecar from a valid npz;
* the ``sidecar`` and ``trace-npz`` fault hooks
  (:mod:`repro.common.faults`), fired after each commit.

The store reaches an artifact only through its class's ``save``,
``load`` and ``load_mmap`` methods, so those stay the codec entry points
a profiler can wrap.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import re
import shutil
import tempfile
import threading
import weakref
import zipfile
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.faults import fire

#: The repository root; default cache directories live in its ``.cache``.
_ROOT = Path(__file__).resolve().parents[3]


def sidecar_path(npz_path: Path) -> Path:
    """The mmap sidecar directory belonging to an ``.npz`` entry."""
    return npz_path.with_name(f"{npz_path.stem}.mmap")


def entry_name(label: str, fingerprint: str) -> str:
    """``<label>.<fingerprint>``, with the label made filename-safe."""
    return f"{re.sub(r'[^A-Za-z0-9._-]', '_', label)[:64]}.{fingerprint}"


def disk_enabled(use_disk: Optional[bool]) -> bool:
    """``use_disk``, defaulting to on unless ``REPRO_NO_DISK_CACHE=1``."""
    if use_disk is None:
        return os.environ.get("REPRO_NO_DISK_CACHE", "") != "1"
    return use_disk


#: npz content hashes keyed by (path, size, mtime_ns): each npz is
#: hashed at most once per process, not on every sidecar open.
_sha1_memo: Dict[Tuple[str, int, int], str] = {}


def file_sha1(path: Path) -> str:
    stat = path.stat()
    key = (str(path), stat.st_size, stat.st_mtime_ns)
    digest = _sha1_memo.get(key)
    if digest is None:
        h = hashlib.sha1()
        with path.open("rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        digest = _sha1_memo[key] = h.hexdigest()
    return digest


def write_npz(path: str | Path, members: Dict[str, object]) -> None:
    """Write ``members`` to ``path`` as an npz, deflated at zlib level 1.

    The archive is what ``np.savez_compressed`` writes (one ``.npy``
    member per key, so ``np.load`` reads it) except for the level:
    ``savez_compressed`` uses zlib's default 6, which on 160k-record
    artifacts takes 2-5x as long for a file 10-65% smaller.
    """
    with zipfile.ZipFile(
        path, "w", compression=zipfile.ZIP_DEFLATED, compresslevel=1
    ) as archive:
        for key, value in members.items():
            with archive.open(f"{key}.npy", "w", force_zip64=True) as member:
                np.lib.format.write_array(
                    member, np.asanyarray(value), allow_pickle=False
                )


def _scalar(value: np.ndarray):
    """A scalar npz member as the str or int it was saved from."""
    return bytes(value).decode() if value.dtype.kind == "S" else int(value)


def _same_meta(dirpath: Path, meta: str) -> bool:
    """True when the sidecar ``dirpath`` holds the ``meta.json`` text
    ``meta`` (so its arrays came from the same npz)."""
    try:
        return (dirpath / "meta.json").read_text() == meta
    except OSError:
        return False


def _commit_dir(tmp: Path, dirpath: Path, meta: str) -> bool:
    """Rename the finished sidecar ``tmp`` to ``dirpath``.

    Returns False, committing nothing, when ``dirpath`` already holds a
    sidecar with the same ``meta.json`` text.  A different one is
    renamed aside first (``rename`` cannot replace a non-empty
    directory) and removed after.  Should another writer commit a
    sidecar with the same meta after that check, the rename aside takes
    the other writer's sidecar, which is put back instead: it is gone
    only between those two renames, and readers fall back to the npz.
    Gives up (False) after a few rounds of writers with different metas
    displacing each other.
    """
    for _ in range(3):
        try:
            os.rename(tmp, dirpath)
            return True
        except OSError:
            if not dirpath.is_dir():
                raise
        if _same_meta(dirpath, meta):
            return False
        aside = tempfile.mkdtemp(
            prefix=f"{dirpath.name}.", suffix=".old.tmp", dir=dirpath.parent
        )
        try:
            os.replace(dirpath, aside)
        except FileNotFoundError:
            pass  # another writer moved it aside first
        else:
            if _same_meta(Path(aside), meta):
                try:
                    os.rename(aside, dirpath)
                    return False
                except OSError:
                    pass  # a third writer committed: retry against it
        finally:
            shutil.rmtree(aside, ignore_errors=True)
    return False


class ArtifactStore:
    """Residency, disk layout and lookup ladder for one artifact kind.

    ``cls`` is the artifact class.  It provides ``meta()`` (the scalar
    metadata saved beside the arrays), ``from_parts(meta, arrays)``
    (validate and construct; raise on anything inconsistent) and the
    codec entry points ``save(path)``, ``load(path)`` and
    ``load_mmap(dirpath)``, which call :meth:`save`, :meth:`read_npz`
    and :meth:`read_sidecar`.

    ``scalar_meta`` picks the npz layout for the metadata: one scalar
    member per key (traces, frontend plans) or a single JSON ``meta``
    member (the replacement pre-pass).  ``npz_fault_site`` names a fault hook fired on each
    committed npz.
    """

    def __init__(
        self,
        kind: str,
        cls: type,
        fields: Sequence[str],
        cache_env: str,
        cache_subdir: str,
        scalar_meta: bool = False,
        npz_fault_site: Optional[str] = None,
    ) -> None:
        self.kind = kind
        self.cls = cls
        self.fields = tuple(fields)
        self._cache_env = cache_env
        self._cache_subdir = cache_subdir
        self._scalar_meta = scalar_meta
        self._npz_fault_site = npz_fault_site
        #: Each live trace's artifacts by name (what keeps them alive),
        #: and the same artifacts by name alone (the lookup).
        self._held: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._memo: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()
        self._lock = threading.Lock()
        # A fork while another thread holds the lock would hand the
        # child a lock nobody will release.
        os.register_at_fork(after_in_child=self._new_lock)

    def _new_lock(self) -> None:
        self._lock = threading.Lock()

    # -- residency -------------------------------------------------------------

    def for_trace(
        self,
        trace,
        name: str,
        build: Optional[Callable[[], object]],
        fingerprint: Optional[str] = None,
        use_disk: Optional[bool] = None,
    ):
        """Artifact ``name`` derived from ``trace``, kept while it lives.

        The copy a live trace with equal content holds (the fingerprint
        in ``name`` hashes the trace's digest), else :meth:`get`; None
        when that finds nothing to load and has no ``build``.
        """
        with self._lock:
            obj = self._memo.get(name)
        if obj is None:
            obj = self.get(name, build, fingerprint, len(trace), use_disk)
            if obj is None:
                return None
        with self._lock:
            # Racing threads settle on the first artifact stored.
            obj = self._memo.setdefault(name, obj)
            self._held.setdefault(trace, {})[name] = obj
        return obj

    def memo_size(self) -> int:
        with self._lock:
            return len(self._memo)

    def clear_memo(self) -> None:
        """Forget every trace's artifacts, so the next lookup of each
        goes to the disk (tests, cold benchmark phases)."""
        with self._lock:
            self._held.clear()
            self._memo.clear()

    # -- layout ----------------------------------------------------------------

    def cache_dir(self) -> Path:
        env = os.environ.get(self._cache_env)
        return Path(env) if env else _ROOT / ".cache" / self._cache_subdir

    def path(self, name: str) -> Path:
        return self.cache_dir() / f"{name}.npz"

    def names(self, prefix: str) -> List[str]:
        """The names of the saved entries that start with ``prefix``."""
        pattern = f"{glob.escape(prefix)}*.npz"
        return sorted(path.stem for path in self.cache_dir().glob(pattern))

    def has_meta(self, name: str, key: str) -> bool:
        """Whether entry ``name`` was saved with the metadata ``key``,
        read from the npz's directory alone (nothing is decompressed).
        Only a kind with one member per metadata key can be asked."""
        if not self._scalar_meta:
            raise TypeError(f"{self.kind} entries keep their metadata in one member")
        try:
            with zipfile.ZipFile(self.path(name)) as archive:
                return f"{key}.npy" in archive.namelist()
        except (OSError, zipfile.BadZipFile):
            return False

    # -- lookup ----------------------------------------------------------------

    def get(
        self,
        name: str,
        build: Optional[Callable[[], object]],
        fingerprint: Optional[str] = None,
        records: Optional[int] = None,
        use_disk: Optional[bool] = None,
    ):
        """Artifact ``name``: sidecar, then npz, then ``build()``.

        A loaded entry must carry ``fingerprint`` and have ``records``
        records when those are given; anything else is stale and is
        discarded like a corrupt file.  A build is saved unless the
        disk layer is off (see :func:`disk_enabled`).  Without a
        ``build``, a miss returns None.
        """
        path = self.path(name) if disk_enabled(use_disk) else None
        obj = None if path is None else self._load(path, fingerprint, records)
        if obj is None and build is not None:
            obj = build()
            if path is not None:
                obj.save(path)
        return obj

    def _load(self, path: Path, fingerprint, records):
        def checked(obj):
            if fingerprint is not None and obj.fingerprint != fingerprint:
                raise ValueError(f"stale {self.kind} entry {path.name}")
            if records is not None and len(obj) != records:
                raise ValueError(f"{self.kind} entry {path.name} has wrong length")
            return obj

        sidecar = sidecar_path(path)
        if sidecar.is_dir():
            try:
                return checked(self.cls.load_mmap(sidecar))
            except Exception:
                shutil.rmtree(sidecar, ignore_errors=True)  # corrupt or stale
        if not path.exists():
            return None
        try:
            obj = checked(self.cls.load(path))
        except Exception:
            path.unlink(missing_ok=True)  # corrupt or stale: rebuild
            return None
        if not sidecar.is_dir():
            self.write_sidecar(obj, path)  # repair for future readers
        return obj

    # -- npz -------------------------------------------------------------------

    def save(self, obj, path: Path) -> None:
        """Commit ``obj`` as the npz ``path``, then write its sidecar."""
        meta = obj.meta()
        if self._scalar_meta:
            members = {
                k: np.bytes_(v.encode()) if isinstance(v, str) else np.int64(v)
                for k, v in meta.items()
            }
        else:
            members = {"meta": np.bytes_(json.dumps(meta, sort_keys=True).encode())}
        members.update((f, getattr(obj, f)) for f in self.fields)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            prefix=f"{path.stem}.", suffix=".tmp.npz", dir=path.parent
        )
        os.close(fd)
        try:
            write_npz(tmp, members)
            os.replace(tmp, path)
        finally:
            Path(tmp).unlink(missing_ok=True)  # only still there on failure
        if self._npz_fault_site is not None:
            # After the rename: injected damage lands on the committed
            # npz, which is what readers must discard and rebuild.
            fire(self._npz_fault_site, str(path))
        self.write_sidecar(obj, path)

    def read_npz(self, path: Path):
        """Load from the npz; raises on any corruption."""
        with np.load(path) as data:
            if self._scalar_meta:
                # Only 0-d members are meta: an undeclared array is one an
                # older layout of the kind saved, which loading ignores.
                extras = {k: data[k] for k in data.files if k not in self.fields}
                meta = {k: _scalar(v) for k, v in extras.items() if v.ndim == 0}
            else:
                meta = json.loads(bytes(data["meta"]).decode())
            arrays = {f: data[f] for f in self.fields}
        return self.cls.from_parts(meta, arrays)

    # -- mmap sidecar ----------------------------------------------------------

    def write_sidecar(self, obj, npz_path: Path) -> None:
        """Write ``obj``'s sidecar beside ``npz_path``, best effort.

        Built in a temp directory and committed by one rename, so a
        reader finds either no sidecar or a whole one.  When a sidecar
        is already there, a writer keeps it if it was derived from the
        same npz (a concurrent writer won the race with the same
        content), and otherwise renames it aside before its own rename,
        so a valid sidecar stays visible to readers (see
        :func:`_commit_dir` for the one narrow exception).
        """
        dirpath = sidecar_path(npz_path)
        try:
            meta = {
                **obj.meta(),
                "records": len(obj),
                "npz_size": npz_path.stat().st_size,
                "npz_sha1": file_sha1(npz_path),
            }
            tmp = Path(
                tempfile.mkdtemp(
                    prefix=f"{dirpath.name}.", suffix=".tmp", dir=dirpath.parent
                )
            )
        except OSError:
            return
        try:
            for f in self.fields:
                np.save(tmp / f"{f}.npy", np.asarray(getattr(obj, f)))
            text = json.dumps(meta, sort_keys=True)
            (tmp / "meta.json").write_text(text)
            if not _commit_dir(tmp, dirpath, text):
                return  # the winner's sidecar stays
        except OSError:
            return
        finally:
            shutil.rmtree(tmp, ignore_errors=True)  # only still there on failure
        # After the commit, so injected damage (truncated or stale meta)
        # lands on the file readers will trust.
        fire("sidecar", str(dirpath / "meta.json"))

    def read_sidecar(self, dirpath: Path):
        """Load from a sidecar, arrays memory-mapped; raises if corrupt or stale.

        The two torn-write shapes, a zero-byte ``meta.json`` and a
        missing array, are checked up front so the discard never depends
        on which exception a numpy or json version throws.
        """
        meta_path = dirpath / "meta.json"
        if not meta_path.exists() or meta_path.stat().st_size == 0:
            raise ValueError(f"{self.kind} sidecar {dirpath} has empty or missing meta.json")
        missing = [f for f in self.fields if not (dirpath / f"{f}.npy").exists()]
        if missing:
            raise ValueError(f"{self.kind} sidecar {dirpath} is missing arrays: {missing}")
        meta = json.loads(meta_path.read_text())
        npz = dirpath.with_name(f"{dirpath.name[: -len('.mmap')]}.npz")
        if npz.stat().st_size != meta["npz_size"] or file_sha1(npz) != meta["npz_sha1"]:
            raise ValueError(f"stale {self.kind} sidecar {dirpath}: its npz changed")
        arrays = {f: np.load(dirpath / f"{f}.npy", mmap_mode="r") for f in self.fields}
        obj = self.cls.from_parts(meta, arrays)
        if len(obj) != meta["records"]:
            raise ValueError(f"inconsistent {self.kind} sidecar lengths in {dirpath}")
        return obj
