"""Named, versioned, content-hashed rule packs with atomic hot-swap.

The paper's headline move -- one trained model repurposed as imputer or
synthesizer purely by swapping the active rule set -- needs the rule set
to be a first-class runtime artifact, not a constructor-time constant.
The registry is that artifact store:

* every pack is registered under a ``name`` with a monotonically bumped
  integer ``version`` and a content fingerprint
  (:func:`~repro.rules.io.rules_fingerprint`, sha256 over the canonical
  rule list, pack name excluded);
* exactly one version per name is *active*; ``promote`` switches it
  atomically, so requests that resolve by bare name flip from old to new
  in one step with no window where neither resolves;
* ``retire`` removes a version from name-based resolution (``409`` at the
  HTTP edge) while keeping it resolvable **by hash** so in-flight and
  crash-replayed records still finish under the version they were
  admitted with.

Registered packs must be treated as immutable: the fingerprint is what
partitions the oracle cache, so mutating a pack after registration would
silently alias two different rule sets onto one partition.  (A rule-count
guard in the fingerprint memo catches the common ``add()`` case.)

Cross-process propagation is snapshot + deltas: ``snapshot()`` returns a
picklable list that seeds a worker-side registry at spawn, and every
``register``/``promote``/``retire`` emits an event dict that the parent
forwards over the worker pipe (``("rules", event)``) and the worker
replays via ``apply_event`` -- subscribers fire on both sides, which is
how retire events reach the oracle cache for partition eviction.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..errors import RetiredRuleSet, UnknownRuleSet
from .dsl import RuleSet
from .io import rules_fingerprint, rules_from_json, rules_to_json

__all__ = ["RuleSetHandle", "RuleSetRegistry", "builtin_registry"]

_MANIFEST = "registry.json"
_MANIFEST_FORMAT = "lejit-registry/1"
_UNSAFE_NAME = re.compile(r"[^A-Za-z0-9._-]")


@dataclass(frozen=True)
class RuleSetHandle:
    """An immutable resolution result: one pack version, pinned.

    Handles are resolved once at admission and ride with the record, so a
    ``promote`` mid-flight never changes what an admitted record enforces.
    ``content_hash`` is the cache-partition key and the wire reference
    (``hash:<hex>``) used to dispatch jobs to supervisor workers.
    """

    name: str
    version: int
    content_hash: str
    rules: RuleSet

    @property
    def ref(self) -> str:
        return f"{self.name}@{self.version}"

    @property
    def hash_ref(self) -> str:
        return f"hash:{self.content_hash}"

    @classmethod
    def for_rules(
        cls, rules: RuleSet, name: Optional[str] = None, version: int = 0
    ) -> "RuleSetHandle":
        """An unregistered handle wrapping ``rules`` (version 0 = ad hoc)."""
        return cls(
            name=name or rules.name,
            version=version,
            content_hash=rules_fingerprint(rules),
            rules=rules,
        )


class RuleSetRegistry:
    """Thread-safe store of named+versioned packs with one active each.

    With ``root`` set, every mutation persists: pack JSON files next to a
    ``registry.json`` manifest recording versions, active pointers, and
    retired flags, so a registry directory round-trips across processes
    and CLI invocations.
    """

    def __init__(self, root: Optional[Union[str, Path]] = None):
        self._lock = threading.RLock()
        self._packs: Dict[str, Dict[int, RuleSetHandle]] = {}
        self._active: Dict[str, int] = {}
        self._retired: Set[Tuple[str, int]] = set()
        self._by_hash: Dict[str, RuleSetHandle] = {}
        self._subscribers: List[Callable[[Dict[str, object]], None]] = []
        self.root = Path(root) if root is not None else None
        if self.root is not None and (self.root / _MANIFEST).exists():
            self._load_dir()

    # -- lifecycle -----------------------------------------------------------

    def register(
        self,
        rules: RuleSet,
        name: Optional[str] = None,
        version: Optional[int] = None,
        activate: Optional[bool] = None,
    ) -> RuleSetHandle:
        """Add a pack version; the first version of a name becomes active.

        ``version`` defaults to one past the highest existing version of
        ``name``; passing an explicit version that already exists raises
        ``ValueError`` (versions are immutable once registered).
        """
        name = name or rules.name
        with self._lock:
            versions = self._packs.setdefault(name, {})
            if version is None:
                version = max(versions, default=0) + 1
            if version in versions:
                raise ValueError(
                    f"rule pack {name}@{version} is already registered; "
                    "versions are immutable -- register a new version"
                )
            handle = RuleSetHandle(
                name=name,
                version=version,
                content_hash=rules_fingerprint(rules),
                rules=rules,
            )
            first = not self._active.get(name)
            if activate is None:
                activate = first
            versions[version] = handle
            # First registration of a hash wins; identical content under
            # several names shares one partition by construction.
            self._by_hash.setdefault(handle.content_hash, handle)
            if activate:
                self._active[name] = version
            self._persist(handle)
            event = {
                "event": "register",
                "name": name,
                "version": version,
                "hash": handle.content_hash,
                "active": bool(activate),
                "json": rules_to_json(rules),
            }
        self._emit(event)
        return handle

    def promote(self, name: str, version: int) -> RuleSetHandle:
        """Atomically make ``name@version`` the active version of ``name``."""
        with self._lock:
            handle = self._get(name, version)
            if (name, version) in self._retired:
                raise RetiredRuleSet(
                    f"rule pack {name}@{version} is retired and cannot be "
                    "promoted"
                )
            self._active[name] = version
            self._persist()
            event = {
                "event": "promote",
                "name": name,
                "version": version,
                "hash": handle.content_hash,
            }
        self._emit(event)
        return handle

    def retire(self, name: str, version: int) -> RuleSetHandle:
        """Remove ``name@version`` from name-based resolution.

        The active version cannot be retired (promote a replacement
        first), so bare-name resolution never dangles.  Subscribers
        receive the content hash so caches can evict the partition.
        """
        with self._lock:
            handle = self._get(name, version)
            if self._active.get(name) == version:
                raise ValueError(
                    f"cannot retire the active version {name}@{version}; "
                    "promote a replacement first"
                )
            self._retired.add((name, version))
            self._persist()
            event = {
                "event": "retire",
                "name": name,
                "version": version,
                "hash": handle.content_hash,
            }
        self._emit(event)
        return handle

    # -- resolution ----------------------------------------------------------

    def resolve(
        self, ref: Union[str, RuleSetHandle]
    ) -> RuleSetHandle:
        """Resolve ``"name"``, ``"name@version"``, or ``"hash:<hex>"``.

        Bare names resolve to the active version.  Hash refs resolve even
        to retired versions -- that path exists precisely so replayed
        in-flight records outlive a retire.
        """
        if isinstance(ref, RuleSetHandle):
            return ref
        ref = str(ref)
        with self._lock:
            if ref.startswith("hash:"):
                handle = self._by_hash.get(ref[len("hash:"):])
                if handle is None:
                    raise UnknownRuleSet(
                        f"no registered rule pack has content hash "
                        f"{ref[len('hash:'):]!r}"
                    )
                return handle
            if "@" in ref:
                name, _, raw = ref.partition("@")
                try:
                    version = int(raw)
                except ValueError:
                    raise UnknownRuleSet(
                        f"malformed rule-pack version in {ref!r}; expected "
                        "name@<integer>"
                    ) from None
                handle = self._get(name, version)
                if (name, version) in self._retired:
                    raise RetiredRuleSet(
                        f"rule pack {name}@{version} is retired"
                    )
                return handle
            active = self._active.get(ref)
            if active is None:
                raise UnknownRuleSet(
                    f"unknown rule pack {ref!r}; available: "
                    f"{', '.join(sorted(self._packs)) or '(none)'}"
                )
            return self._packs[ref][active]

    def _get(self, name: str, version: int) -> RuleSetHandle:
        versions = self._packs.get(name)
        if not versions:
            raise UnknownRuleSet(
                f"unknown rule pack {name!r}; available: "
                f"{', '.join(sorted(self._packs)) or '(none)'}"
            )
        handle = versions.get(version)
        if handle is None:
            raise UnknownRuleSet(
                f"unknown version {version} of rule pack {name!r}; "
                f"registered: {', '.join(map(str, sorted(versions)))}"
            )
        return handle

    # -- introspection -------------------------------------------------------

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._packs)

    def describe(self) -> List[Dict[str, object]]:
        """One JSON-able row per registered pack version."""
        with self._lock:
            rows = []
            for name in sorted(self._packs):
                for version in sorted(self._packs[name]):
                    handle = self._packs[name][version]
                    rows.append(
                        {
                            "name": name,
                            "version": version,
                            "hash": handle.content_hash,
                            "rules": len(handle.rules),
                            "active": self._active.get(name) == version,
                            "retired": (name, version) in self._retired,
                        }
                    )
            return rows

    # -- cross-process propagation -------------------------------------------

    def subscribe(
        self, callback: Callable[[Dict[str, object]], None]
    ) -> None:
        """Call ``callback(event)`` after every register/promote/retire."""
        with self._lock:
            self._subscribers.append(callback)

    def _emit(self, event: Dict[str, object]) -> None:
        # Outside the lock: a subscriber may call back into the registry.
        with self._lock:
            subscribers = list(self._subscribers)
        for callback in subscribers:
            callback(event)

    def snapshot(self) -> List[Dict[str, object]]:
        """Picklable state for seeding a worker registry at spawn."""
        with self._lock:
            entries = []
            for name in sorted(self._packs):
                for version in sorted(self._packs[name]):
                    handle = self._packs[name][version]
                    entry = {
                        "name": name,
                        "version": version,
                        "json": rules_to_json(handle.rules),
                        "active": self._active.get(name) == version,
                        "retired": (name, version) in self._retired,
                    }
                    entries.append(entry)
            return entries

    @classmethod
    def from_snapshot(
        cls, entries: Sequence[Dict[str, object]]
    ) -> "RuleSetRegistry":
        registry = cls()
        for entry in entries:
            registry.register(
                rules_from_json(str(entry["json"])),
                name=str(entry["name"]),
                version=int(entry["version"]),  # type: ignore[arg-type]
                activate=bool(entry["active"]),
            )
        for entry in entries:
            if entry.get("retired"):
                registry._retired.add(
                    (str(entry["name"]), int(entry["version"]))  # type: ignore[arg-type]
                )
        return registry

    def apply_event(self, event: Dict[str, object]) -> None:
        """Replay a parent-side mutation on a worker-side registry.

        Events arrive over the pipe in emission order, so the parent's
        invariants (e.g. promote-before-retire) hold here too.  Local
        subscribers fire exactly as for a direct mutation -- this is how a
        worker's oracle cache learns about retires.
        """
        kind = event.get("event")
        name = str(event["name"])
        version = int(event["version"])  # type: ignore[arg-type]
        if kind == "register":
            with self._lock:
                known = version in self._packs.get(name, {})
            if not known:
                self.register(
                    rules_from_json(str(event["json"])),
                    name=name,
                    version=version,
                    activate=bool(event.get("active")),
                )
        elif kind == "promote":
            self.promote(name, version)
        elif kind == "retire":
            self.retire(name, version)

    # -- persistence ---------------------------------------------------------

    def _pack_filename(self, name: str, version: int) -> str:
        return f"{_UNSAFE_NAME.sub('_', name)}@{version}.json"

    def _persist(self, new_handle: Optional[RuleSetHandle] = None) -> None:
        """Write the manifest (and the new pack file, if any) under root."""
        if self.root is None:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        if new_handle is not None:
            path = self.root / self._pack_filename(
                new_handle.name, new_handle.version
            )
            path.write_text(rules_to_json(new_handle.rules))
        packs = []
        for name in sorted(self._packs):
            for version in sorted(self._packs[name]):
                handle = self._packs[name][version]
                packs.append(
                    {
                        "name": name,
                        "version": version,
                        "file": self._pack_filename(name, version),
                        "hash": handle.content_hash,
                        "active": self._active.get(name) == version,
                        "retired": (name, version) in self._retired,
                    }
                )
        manifest = {"format": _MANIFEST_FORMAT, "packs": packs}
        import json as _json

        (self.root / _MANIFEST).write_text(
            _json.dumps(manifest, indent=2) + "\n"
        )

    def _load_dir(self) -> None:
        import json as _json

        manifest = _json.loads((self.root / _MANIFEST).read_text())
        if manifest.get("format") != _MANIFEST_FORMAT:
            raise ValueError(
                f"unsupported registry manifest format "
                f"{manifest.get('format')!r}"
            )
        for entry in manifest.get("packs", []):
            name = str(entry["name"])
            version = int(entry["version"])
            rules = rules_from_json(
                (self.root / str(entry["file"])).read_text()
            )
            handle = RuleSetHandle(
                name=name,
                version=version,
                content_hash=rules_fingerprint(rules),
                rules=rules,
            )
            self._packs.setdefault(name, {})[version] = handle
            self._by_hash.setdefault(handle.content_hash, handle)
            if entry.get("active"):
                self._active[name] = version
            if entry.get("retired"):
                self._retired.add((name, version))


def builtin_registry(
    config=None, root: Optional[Union[str, Path]] = None
) -> RuleSetRegistry:
    """A registry pre-seeded with the paper's rule libraries at v1.

    Registers ``paper-R1-R3`` (imputation), ``zoom2net-C4-C7``, and the
    domain-bounds pack unless a persisted registry at ``root`` already
    carries a pack of the same name.
    """
    from .library import (
        domain_bound_rules,
        paper_rules,
        zoom2net_manual_rules,
    )

    registry = RuleSetRegistry(root=root)
    existing = set(registry.names())
    for build in (paper_rules, zoom2net_manual_rules, domain_bound_rules):
        rules = build(config)
        if rules.name not in existing:
            registry.register(rules)
    return registry
