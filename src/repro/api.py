"""Spec-driven construction of every Section 6 application index.

One facade over the whole index layer, mirroring the index-factory surface
of production ANN libraries: an :class:`IndexSpec` names a *kind* (which
data structure), a *family* (which registered DSH family backs it, see
:mod:`repro.families.registry`), and plain serializable parameters —
``to_dict`` / ``from_dict`` round-trip exactly, so a serving process can
rebuild an identical index (same seed, same hash pairs, same answers) from
config alone.

Kinds
-----
``raw``
    The bare Theorem 6.1 candidate machine (:class:`~repro.index.DSHIndex`).
``annulus``
    Approximate annulus search (:class:`~repro.index.AnnulusIndex`);
    options: ``interval`` (required), ``proximity`` (a name from
    :data:`PROXIMITIES`; defaults to ``"inner_product"`` for the
    ``annulus_sphere`` family), ``budget_factor``.
``hyperplane``
    Near-orthogonal-vector queries (:class:`~repro.index.HyperplaneIndex`);
    options: ``alpha``, ``t`` (the family is the Section 6.2 sphere family,
    built internally).
``range_reporting``
    Output-sensitive range reporting
    (:class:`~repro.index.RangeReportingIndex`); options: ``r_report``,
    ``distance`` (a name from :data:`PROXIMITIES`).

Every built index satisfies the :class:`~repro.index.queryable.Queryable`
protocol — ``query(point)`` and ``batch_query(points)`` with
stats-carrying results — and remembers its spec as ``index.spec``.

Quickstart::

    from repro.api import build_index

    index = build_index(
        points, kind="annulus", family="annulus_sphere",
        t=1.7, interval=(0.35, 0.75), n_tables=150, rng=7,
    )
    results = index.batch_query(queries)       # vectorized multi-query
    config = index.spec.to_dict()              # -> JSON-able dict
    clone = IndexSpec.from_dict(config).build(points)   # identical index
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.core.family import DSHFamily
from repro.families.registry import (
    check_power,
    family_entry,
    family_names,
    make_family,
    validate_family_params,
)
from repro.index.annulus import (
    AnnulusIndex,
    _inner_product_proximity,
    sphere_peak_placement,
)
from repro.index.backends import BACKENDS
from repro.index.hyperplane import HyperplaneIndex
from repro.index.lsh_index import DSHIndex
from repro.index.persistence import (
    FORMAT_VERSION,
    IndexIntegrityError,
    integrity_record,
    read_arrays,
    verify_integrity,
    write_arrays,
)
from repro.index.queryable import Queryable
from repro.utils.validation import check_real_dtype

if TYPE_CHECKING:  # serving imports api lazily; keep the cycle type-only
    from repro.serving.options import ServingOptions
from repro.index.range_reporting import RangeReportingIndex

__all__ = [
    "PROXIMITIES",
    "IndexSpec",
    "IndexIntegrityError",
    "build_index",
    "register_proximity",
    "index_paths",
    "save_index",
    "load_index",
    "verify_saved_index",
]

SPEC_VERSION = 1


def _euclidean_distance(query: np.ndarray, points: np.ndarray) -> np.ndarray:
    return np.linalg.norm(points - query, axis=1)


def _hamming_distance(query: np.ndarray, points: np.ndarray) -> np.ndarray:
    return np.count_nonzero(points != query, axis=1)


#: Named row-wise proximity / distance functions
#: ``(query (d,), points (m, d)) -> (m,)``.  Specs refer to these by name so
#: they serialize; :func:`register_proximity` adds custom ones.
PROXIMITIES: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "inner_product": _inner_product_proximity,
    "euclidean_distance": _euclidean_distance,
    "hamming_distance": _hamming_distance,
}


def register_proximity(
    name: str,
    func: Callable[[np.ndarray, np.ndarray], np.ndarray],
    overwrite: bool = False,
) -> None:
    """Register a named proximity so specs using it stay serializable."""
    if name in PROXIMITIES and not overwrite:
        raise ValueError(
            f"proximity {name!r} is already registered; pass overwrite=True"
        )
    PROXIMITIES[name] = func


def _resolve_proximity(spec_value: Any) -> Callable:
    if callable(spec_value):
        return spec_value
    try:
        return PROXIMITIES[spec_value]
    except KeyError:
        raise ValueError(
            f"unknown proximity {spec_value!r}; registered: "
            f"{sorted(PROXIMITIES)} (or pass a callable, which is not "
            "serializable)"
        ) from None


def _plain(value: Any) -> Any:
    """Recursively coerce numpy scalars (and tuples) to JSON-able builtins;
    anything else passes through unchanged."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


KINDS = ("raw", "annulus", "hyperplane", "range_reporting")

# Option keys each kind accepts: {name: required}.
_KIND_OPTIONS: dict[str, dict[str, bool]] = {
    "raw": {},
    "annulus": {"interval": True, "proximity": False, "budget_factor": False},
    "hyperplane": {"alpha": True, "t": True, "budget_factor": False},
    "range_reporting": {"r_report": True, "distance": True},
}

# Kinds whose spec carries a family name (hyperplane builds its own).
_FAMILY_KINDS = ("raw", "annulus", "range_reporting")


@dataclass(frozen=True)
class IndexSpec:
    """A complete, serializable recipe for one application index.

    Attributes
    ----------
    kind:
        One of :data:`KINDS`.
    family:
        Registered family name (``None`` for ``kind="hyperplane"``, which
        derives its own Section 6.2 family from ``alpha``/``t``).
    family_params:
        Flat parameters for the family's validated dataclass, plus the
        generic ``power`` (Lemma 1.4(a) concatenation count).
    n_tables:
        Repetition count ``L``.
    backend:
        Storage backend name (``"dict"`` or ``"packed"``).
    seed:
        Integer seed for sampling the hash pairs; two builds of the same
        spec over the same points answer queries identically.  ``None``
        draws fresh entropy (the spec still serializes, but rebuilds are
        not reproducible).
    shards:
        Partition the point set into this many contiguous shards, each
        backed by its own index over identical hash pairs, served by
        :class:`~repro.serving.sharded.ShardedIndex` (``build`` returns one
        when ``shards > 1``).  Requires ``kind="raw"``, a fixed ``seed``
        (all shards must sample the same pairs for the merged candidate
        streams to match the unsharded index exactly) and
        ``backend="packed"`` (the shards run through the packed probe).
    options:
        Kind-specific options (see module docstring).
    """

    kind: str
    family: str | None = None
    family_params: dict[str, Any] = field(default_factory=dict)
    n_tables: int = 1
    backend: str = "packed"
    seed: int | None = None
    shards: int = 1
    options: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        if self.n_tables < 1:
            raise ValueError(f"n_tables must be >= 1, got {self.n_tables}")
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; available: {sorted(BACKENDS)}"
            )
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.shards > 1:
            if self.kind != "raw":
                raise ValueError(
                    f"shards > 1 currently requires kind='raw', got "
                    f"kind={self.kind!r}"
                )
            if self.seed is None:
                raise ValueError(
                    "shards > 1 needs a fixed integer seed: every shard "
                    "must sample identical hash pairs for the merged "
                    "candidate streams to match the unsharded index"
                )
            if self.backend != "packed":
                raise ValueError(
                    f"shards > 1 requires backend='packed', got "
                    f"backend={self.backend!r}: the shards run through "
                    "the packed probe"
                )
        if self.seed is not None and not isinstance(self.seed, (int, np.integer)):
            raise ValueError(
                f"seed must be an int or None (specs must serialize), "
                f"got {type(self.seed).__name__}"
            )
        if self.kind in _FAMILY_KINDS:
            if self.family is None:
                raise ValueError(
                    f"kind {self.kind!r} needs a family; registered: "
                    f"{family_names()}"
                )
            params = dict(self.family_params)
            check_power(params.pop("power", 1))
            validate_family_params(self.family, params)
        elif self.family is not None:
            raise ValueError(
                f"kind {self.kind!r} builds its own family; family must be None"
            )
        allowed = _KIND_OPTIONS[self.kind]
        unknown = set(self.options) - set(allowed)
        if unknown:
            raise ValueError(
                f"unknown option(s) {sorted(unknown)} for kind {self.kind!r}; "
                f"accepted: {sorted(allowed)}"
            )
        missing = {k for k, req in allowed.items() if req} - set(self.options)
        if missing:
            raise ValueError(
                f"missing required option(s) {sorted(missing)} for kind "
                f"{self.kind!r}"
            )
        if "interval" in self.options:
            lo, hi = self.options["interval"]
            if not lo < hi:
                raise ValueError(
                    f"interval must satisfy lo < hi, got {(lo, hi)}"
                )
        for key in ("budget_factor", "r_report"):
            if key in self.options and not self.options[key] > 0:
                raise ValueError(
                    f"{key} must be positive, got {self.options[key]}"
                )

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form (JSON-able); inverse of :meth:`from_dict`.
        Numpy scalars in parameters are coerced to builtins."""
        options = dict(self.options)
        if "interval" in options:
            options["interval"] = [float(v) for v in options["interval"]]
        for key in ("proximity", "distance"):
            if key in options and callable(options[key]):
                raise ValueError(
                    f"option {key!r} is a bare callable; register it with "
                    "repro.api.register_proximity and use its name to make "
                    "the spec serializable"
                )
        return {
            "version": SPEC_VERSION,
            "kind": self.kind,
            "family": self.family,
            "family_params": _plain(dict(self.family_params)),
            "n_tables": int(self.n_tables),
            "backend": self.backend,
            "seed": None if self.seed is None else int(self.seed),
            "shards": int(self.shards),
            "options": _plain(options),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "IndexSpec":
        """Rebuild (and re-validate) a spec from :meth:`to_dict` output."""
        data = dict(data)
        version = data.pop("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ValueError(
                f"unsupported spec version {version!r} (this build reads "
                f"version {SPEC_VERSION})"
            )
        unknown = set(data) - {
            "kind", "family", "family_params", "n_tables", "backend",
            "seed", "shards", "options",
        }
        if unknown:
            raise ValueError(f"unknown spec field(s): {sorted(unknown)}")
        options = dict(data.get("options", {}))
        if "interval" in options:
            options["interval"] = tuple(options["interval"])
        return cls(
            kind=data["kind"],
            family=data.get("family"),
            family_params=dict(data.get("family_params", {})),
            n_tables=data.get("n_tables", 1),
            backend=data.get("backend", "packed"),
            seed=data.get("seed"),
            shards=data.get("shards", 1),
            options=options,
        )

    # -- construction ----------------------------------------------------

    def _make_family(self):
        params = dict(self.family_params)
        power = params.pop("power", 1)
        return make_family(self.family, power=power, **params)

    def build(
        self, points: np.ndarray, workers: int | None = None
    ) -> Queryable:
        """Build the index described by this spec over ``points``.

        The returned object satisfies
        :class:`~repro.index.queryable.Queryable` and carries this spec as
        ``index.spec``.  ``workers`` threads the per-table build hashing
        (see :meth:`DSHIndex.build`); with ``shards > 1`` it also sets the
        shard-build parallelism and the result is a
        :class:`~repro.serving.sharded.ShardedIndex`.
        """
        if self.shards > 1:
            from repro.serving.sharded import ShardedIndex

            return ShardedIndex(points, self, build_workers=workers)

        def inner(family: DSHFamily, rows: np.ndarray | None) -> DSHIndex:
            return DSHIndex(
                family, self.n_tables, rng=self.seed, backend=self.backend
            ).build(np.asarray(rows), workers=workers)

        index = _assemble(self, np.atleast_2d(np.asarray(points)), inner)
        index.spec = self
        return index


def _assemble(
    spec: IndexSpec,
    points: np.ndarray | None,
    inner: Callable[[DSHFamily, np.ndarray | None], DSHIndex],
) -> DSHIndex | AnnulusIndex | RangeReportingIndex:
    """Every per-kind decision, made once for building and loading: the
    family, the Section 6 wrapper and its defaults around the Theorem 6.1
    index ``inner(family, points)`` supplies — freshly built by
    :meth:`IndexSpec.build`, revived over stored tables by
    :func:`load_index`.  Application kinds hold (and are built on) their
    points as float64; ``points`` is ``None`` only for a loaded raw
    index, which keeps none."""
    opts = spec.options
    if spec.kind == "raw":
        return inner(spec._make_family(), points)
    if points is None:
        raise ValueError(f"kind {spec.kind!r} needs its points array")
    points = np.asarray(check_real_dtype(points, "points"), np.float64)
    points = np.atleast_2d(points)
    if spec.kind == "range_reporting":
        return RangeReportingIndex._restore(
            points=points,
            r_report=opts["r_report"],
            distance=_resolve_proximity(opts["distance"]),
            index=inner(spec._make_family(), points),
        )
    cls: type[AnnulusIndex] = AnnulusIndex
    if spec.kind == "hyperplane":
        cls = HyperplaneIndex
        family, interval = HyperplaneIndex._band(
            points.shape[1], opts["alpha"], opts["t"]
        )
        proximity = "inner_product"
    else:
        family, interval = spec._make_family(), tuple(opts["interval"])
        proximity = opts.get("proximity")
        if proximity is None:
            if spec.family != "annulus_sphere":
                raise ValueError(
                    "kind='annulus' needs an explicit proximity option "
                    f"for family {spec.family!r}; registered proximities: "
                    f"{sorted(PROXIMITIES)}"
                )
            proximity = "inner_product"
    return cls._restore(
        points=points,
        interval=interval,
        proximity=_resolve_proximity(proximity),
        budget_factor=opts.get("budget_factor", 8.0),
        index=inner(family, points),
    )


def build_index(
    points: np.ndarray,
    *,
    kind: str = "raw",
    family: str | None = None,
    n_tables: int,
    backend: str = "packed",
    rng: int | None = None,
    shards: int = 1,
    workers: int | None = None,
    **params: Any,
) -> DSHIndex | AnnulusIndex | HyperplaneIndex | RangeReportingIndex:
    """Build any application index from a kind, a family name, and flat
    parameters — the single construction entry point.

    Remaining keyword arguments are routed automatically: names matching
    the family's parameter dataclass (plus ``power``) become family
    parameters, names matching the kind's options become options, anything
    else raises with both accepted sets.  Two conveniences keep call sites
    terse:

    * ``d`` is inferred from ``points`` when the family needs it and it is
      omitted;
    * for ``kind="annulus"`` with ``family="annulus_sphere"``, an omitted
      ``alpha_max`` is placed at the Theorem 6.4 geometric midpoint of the
      reporting ``interval``.

    The resulting index carries its full, explicit :class:`IndexSpec` as
    ``index.spec`` (``index.spec.to_dict()`` is the serving config).
    """
    points = np.atleast_2d(np.asarray(points))
    if rng is not None and not isinstance(rng, (int, np.integer)):
        raise TypeError(
            "build_index takes an int seed (or None) so the spec can "
            "serialize; pass a generator to the index classes directly if "
            "you need one"
        )
    allowed_options = _KIND_OPTIONS.get(kind)
    if allowed_options is None:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")

    family_fields: set[str] = set()
    if kind in _FAMILY_KINDS:
        if family is None:
            raise ValueError(
                f"kind {kind!r} needs a family; registered: {family_names()}"
            )
        family_fields = {
            f.name for f in dataclasses.fields(family_entry(family).params_type)
        } | {"power"}
    elif family is not None:
        raise ValueError(f"kind {kind!r} builds its own family; omit family=")

    family_params: dict[str, Any] = {}
    options: dict[str, Any] = {}
    for key, value in params.items():
        in_family = key in family_fields
        in_options = key in allowed_options
        if in_family and in_options:
            raise ValueError(
                f"parameter {key!r} is ambiguous between family "
                f"{family!r} and kind {kind!r} options; build an IndexSpec "
                "explicitly"
            )
        if in_family:
            family_params[key] = value
        elif in_options:
            options[key] = value
        else:
            raise ValueError(
                f"unknown parameter {key!r} for kind={kind!r}, "
                f"family={family!r}; family parameters: "
                f"{sorted(family_fields)}, options: {sorted(allowed_options)}"
            )

    if "d" in family_fields and "d" not in family_params:
        family_params["d"] = int(points.shape[1])
    if (
        kind == "annulus"
        and family == "annulus_sphere"
        and "alpha_max" not in family_params
        and "interval" in options
    ):
        family_params["alpha_max"] = sphere_peak_placement(
            tuple(options["interval"])
        )

    spec = IndexSpec(
        kind=kind,
        family=family,
        family_params=family_params,
        n_tables=n_tables,
        backend=backend,
        seed=None if rng is None else int(rng),
        shards=shards,
        options=options,
    )
    return spec.build(points, workers=workers)


# -- persistence ---------------------------------------------------------

# Array-key prefix separating backend payload from application arrays
# (points) inside a saved index's .npz.
_BACKEND_PREFIX = "backend_"


def index_paths(path: str | pathlib.Path) -> tuple[pathlib.Path, pathlib.Path]:
    """Resolve a save/load base path to its ``(.npz, .json)`` pair.  The
    base may be given with or without either suffix; any other dot in the
    name (e.g. a ``.shard0`` shard qualifier) is part of the base, so the
    suffixes are appended, never substituted."""
    base = pathlib.Path(path)
    name = base.name
    for suffix in (".npz", ".json"):
        if name.lower().endswith(suffix):
            name = name[: -len(suffix)]
            break
    return base.with_name(name + ".npz"), base.with_name(name + ".json")


def save_index(index: Queryable, path: str | pathlib.Path) -> pathlib.Path:
    """Persist a built index as ``<path>.npz`` + ``<path>.json``.

    The ``.npz`` holds the storage backend's table arrays (for the packed
    backend: the CSR ``fingerprints``/``offsets``/``point_ids`` layout,
    verbatim) plus, for application kinds, the ``points`` array their
    proximity checks read.  The JSON sidecar carries everything
    non-array: the :class:`IndexSpec` dict and the sampled-pair RNG state,
    from which :func:`load_index` revives identical hash pairs.

    Only indexes carrying a spec (built via :func:`build_index` /
    :meth:`IndexSpec.build`) can be saved — the spec is what makes the
    family reconstructible.  Returns the sidecar path.
    """
    from repro.serving.sharded import ShardedIndex

    if isinstance(index, ShardedIndex):
        return index.save(path)
    spec = getattr(index, "spec", None)
    if spec is None:
        raise ValueError(
            "index has no spec; only indexes built through repro.api "
            "(build_index / IndexSpec.build) can be saved"
        )
    if isinstance(index, DSHIndex):
        inner, points = index, None
    elif isinstance(index, (AnnulusIndex, RangeReportingIndex)):
        inner, points = index._index, index.points
    else:
        raise TypeError(f"cannot persist {type(index).__name__}")
    arrays = {
        _BACKEND_PREFIX + key: value
        for key, value in inner._backend.export_arrays().items()
    }
    if points is not None:
        arrays["points"] = points
    npz_path, json_path = index_paths(path)
    write_arrays(npz_path, arrays)
    sidecar = {
        "format": FORMAT_VERSION,
        "layout": "single",
        "spec": spec.to_dict(),
        "pair_rng_state": inner.pair_rng_state,
        "n_points": int(inner.n_points),
        "dim": int(inner.dim),
        "integrity": integrity_record(npz_path, arrays),
    }
    json_path.write_text(json.dumps(sidecar, indent=2))
    return json_path


def _revive(
    spec: IndexSpec, sidecar: dict[str, Any], arrays: dict[str, np.ndarray]
) -> DSHIndex | AnnulusIndex | RangeReportingIndex:
    """Reconstruct the application object around a loaded backend — the
    load-time twin of :meth:`IndexSpec.build` through the same
    :func:`_assemble`, with zero hashing."""
    backend = BACKENDS[spec.backend]()
    backend.import_arrays(
        {
            key[len(_BACKEND_PREFIX):]: value
            for key, value in arrays.items()
            if key.startswith(_BACKEND_PREFIX)
        }
    )

    def inner(family: DSHFamily, rows: np.ndarray | None) -> DSHIndex:
        return DSHIndex.from_state(
            family,
            spec.n_tables,
            pair_rng_state=sidecar["pair_rng_state"],
            backend=backend,
            n_points=int(sidecar["n_points"]),
            dim=int(sidecar["dim"]),
        )

    return _assemble(spec, arrays.get("points"), inner)


def _check_sidecar_format(sidecar: dict, json_path: pathlib.Path) -> None:
    """Shared format-version gate for sidecars and shard manifests."""
    version = sidecar.get("format")
    if version != FORMAT_VERSION:
        raise IndexIntegrityError(
            f"unsupported index format {version!r} (this build reads "
            f"format {FORMAT_VERSION})",
            kind="manifest",
        )


def verify_saved_index(
    path: str | pathlib.Path, *, verify: str = "eager"
) -> None:
    """Integrity-probe a saved index without reviving it.

    For a single-index save: checks the sidecar format and runs
    :func:`repro.index.persistence.verify_integrity` at the requested
    level (``"eager"`` re-checksums every member; ``"lazy"`` is the O(1)
    size/structure check; ``"off"`` only validates the format version).
    For a sharded manifest: validates manifest coherence (shard count,
    bounds) and probes every shard file recursively.  Raises
    :class:`IndexIntegrityError` (or :class:`FileNotFoundError` for
    missing files) on the first problem; returns ``None`` when healthy.
    """
    npz_path, json_path = index_paths(path)
    sidecar = json.loads(json_path.read_text())
    _check_sidecar_format(sidecar, json_path)
    if sidecar.get("layout") == "sharded":
        from repro.serving.sharded import check_manifest_coherence

        shard_names = check_manifest_coherence(sidecar, json_path)
        for name in shard_names:
            verify_saved_index(json_path.parent / name, verify=verify)
        return
    verify_integrity(npz_path, sidecar.get("integrity"), mode=verify)


def load_index(
    path: str | pathlib.Path,
    *,
    options: "ServingOptions | None" = None,
) -> Queryable:
    """Revive a :func:`save_index` index — zero-copy, O(1) in ``n``.

    Serving configuration arrives as one frozen
    :class:`~repro.serving.options.ServingOptions` (``options=``,
    defaults when ``None``).

    With ``options.mmap`` true (default) the table arrays (and ``points`` for
    application kinds) are read-only memory maps into the ``.npz``: cold
    start costs file opens and header parses, not a rebuild's ``O(L n)``
    hash evaluations, and concurrent serving processes share the pages.
    The loaded index answers every query byte-identically to the original
    (same candidates, same order, same stats).

    ``options.verify`` selects the integrity level the bundle is held to:
    ``"lazy"`` (default) runs the O(1) structural checks — recorded file
    size, readable archive — catching truncated or partially-copied
    bundles without sacrificing the O(1) cold start; ``"eager"``
    additionally re-checksums every member against the sidecar's CRC-32
    records (reads all bytes — use for untrusted replicas); ``"off"``
    skips both.  Failures raise
    :class:`~repro.index.persistence.IndexIntegrityError` whose ``kind``
    distinguishes truncation, checksum mismatch, and manifest skew.
    Bundles saved before checksums existed load under every mode.

    A sharded save (``ShardedIndex.save`` / a spec with ``shards > 1``)
    is detected from the sidecar and dispatched to
    :meth:`~repro.serving.sharded.ShardedIndex.load`, which opens every
    shard in the calling process under the same ``mmap`` and ``verify``
    options.  ``options.workers`` selects nothing; it is still rejected
    for single-file indexes.
    """
    from repro.serving.options import ServingOptions

    opts = ServingOptions() if options is None else options
    npz_path, json_path = index_paths(path)
    sidecar = json.loads(json_path.read_text())
    _check_sidecar_format(sidecar, json_path)
    if sidecar.get("layout") == "sharded":
        from repro.serving.sharded import ShardedIndex

        return ShardedIndex.load(path, options=opts)
    if opts.workers is not None:
        raise ValueError(
            "workers= applies to sharded indexes only; this file holds a "
            "single index"
        )
    spec = IndexSpec.from_dict(sidecar["spec"])
    arrays = read_arrays(npz_path, mmap=opts.mmap)
    try:
        verify_integrity(
            npz_path, sidecar.get("integrity"), mode=opts.verify,
            arrays=arrays,
        )
    except IndexIntegrityError:
        # The traceback keeps this frame alive; drop the memory maps so a
        # rejected bundle holds no descriptors.
        arrays.clear()
        raise
    index = _revive(spec, sidecar, arrays)
    index.spec = spec
    return index
