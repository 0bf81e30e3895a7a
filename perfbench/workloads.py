"""The benchmark's three workloads.

Each workload draws its items from a fixed pool that the benchmark defines.
The seed builds the run's inputs from the pool: the DFS seeds of the CLI
chain, or a symmetry (a sign flip of the hypercube's coordinates, a
permutation of the fan's elements) applied to every input.  A run repeats
the same pass of items until its time is up, so that each item is timed many
times.  The seed only chooses among inputs that cost the same or nearly so,
so that every seed measures the same amount of work.  Reference
digests exist for every pool item (``reference/<workload>.json``), so any
item a run can reach is checked against the answer recorded at the seed
commit, besides the paper law the workload checks.

A workload provides:

- ``setup(tc, seed, scratch_dir)``: build the run's inputs with the freshly
  imported package ``tc`` (timed as set-up), among them ``items``, the list
  of ``Item`` that makes up one pass;
- ``reference_passes()``: finitely many passes that together reach every
  pool item;
- ``call(item)``: the timed calls into the package for one item;
- ``check(item, out)``: the law checks, as a list of problems, and the
  payload whose digest is compared with the reference;
- ``close()``: remove what set-up created on disk, if anything.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import tempfile
from dataclasses import dataclass
from math import comb
from typing import Any


def digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def signs(v) -> str:
    return "".join("+" if x > 0 else "-" for x in v)


def random_topes(seed: int, t: int, n: int) -> list[tuple[int, ...]]:
    rng = random.Random(seed)
    return [tuple(rng.choice((1, -1)) for _ in range(t)) for _ in range(n)]


def flipped(flip, v) -> tuple[int, ...]:
    """v with the coordinates where ``flip`` is -1 negated.  Flipping is its
    own inverse, and it maps the hypercube and its symmetric cycles onto
    themselves while leaving every agreement mask unchanged."""
    return tuple(s * x for s, x in zip(flip, v))


@dataclass(frozen=True)
class Item:
    key: str  # names the pool item in the reference file
    args: Any
    units: int = 1  # work units, for the throughput a run prints


class Workload:
    def close(self) -> None:
        pass


class CensusHypercube(Workload):
    """census of all 2^8 hypercube topes over the canonical cycle and the
    cycles of three DFS searches.  The seed draws a sign vector that flips
    every cycle (x -> flip*x, elementwise), so each seed does the same work on
    other inputs; the topes each census reports are flipped back before their
    digest is compared with the reference."""

    name = "census_hypercube"
    unit = "topes"
    T = 8
    CYCLES = (None, 0, 1, 2)  # None is the canonical cycle, the rest DFS search seeds

    def setup(self, tc, seed: int, scratch_dir: str) -> None:
        self.tc = tc
        self.topes = tc.arrangements.hypercube_topes(self.T)
        self.flip = random_topes(seed, self.T, 1)[0]
        self.items = self._items()

    def _items(self) -> list[Item]:
        items = []
        for s in self.CYCLES:
            if s is None:
                key, cycle = "canonical", self.tc.cycles.canonical_hypercube_cycle(self.T)
            else:
                key, cycle = f"dfs{s}", self.tc.cycles.find_symmetric_cycle(self.topes, seed=s)
            cycle = self.tc.cycles.symmetric_cycle(flipped(self.flip, v) for v in cycle)
            items.append(Item(key, cycle, len(self.topes)))
        return items

    def reference_passes(self):
        self.flip = (1,) * self.T
        yield self._items()

    def call(self, item: Item):
        return self.tc.oracles.census(self.topes, item.args, list_topes=True)

    def check(self, item: Item, res) -> tuple[list[str], Any]:
        expected = {j: 2 * comb(self.T, j) for j in range(1, self.T + 1, 2)}
        problems = []
        if dict(res.histogram) != expected:
            problems.append(f"histogram {dict(res.histogram)} != 2*C(t,j) {expected}")
        by_size = {str(j): sorted(signs(flipped(self.flip, v)) for v in vs) for j, vs in res.by_size.items()}
        return problems, by_size


class FVectorDS(Workload):
    """The ``ds`` part of ``fvectors``.  Per tope on two DFS cycles of the
    t=15 hypercube: decompose, both face complexes, their long f-vector and
    the Dehn-Sommerville report.

    The seed draws a sign vector that flips every tope and cycle vertex, so
    each seed does exactly the same work on other inputs.  Decomposition
    members are flipped back before their digest is compared with the
    reference."""

    T = 15
    CYCLES = (0, 1)  # DFS search seeds
    TOPES = 6

    def setup(self, tc, seed: int, scratch_dir: str) -> None:
        self.tc = tc
        self.flip = random_topes(seed, self.T, 1)[0]
        self.items = self._items()
        random.Random(seed).shuffle(self.items)

    def _items(self) -> list[Item]:
        hypercube = self.tc.arrangements.hypercube_topes(self.T)
        topes = random_topes(15015, self.T, self.TOPES)
        items = []
        for s in self.CYCLES:
            cycle = self.tc.cycles.find_symmetric_cycle(hypercube, seed=s)
            cycle = self.tc.cycles.symmetric_cycle(flipped(self.flip, v) for v in cycle)
            items += [Item(f"{s}:{i}", (flipped(self.flip, tope), cycle)) for i, tope in enumerate(topes)]
        return items

    def reference_passes(self):
        self.flip = (1,) * self.T
        yield self._items()

    def call(self, item: Item):
        tope, cycle = item.args
        tc = self.tc
        dec = tc.decomposition.decompose(tope, cycle)
        lam = tc.complexes.lambda_face_masks(tope, cycle)
        delta = tc.complexes.delta_face_masks(tope, cycle)
        f = tc.complexes.long_f_vector(lam, self.T)
        report = tc.dehn_sommerville.check_ds(f)
        return dec.members, lam, delta, f, report.passes

    def check(self, item: Item, out) -> tuple[list[str], Any]:
        members, lam, delta, f, passes = out
        tope = item.args[0]
        problems = []
        if tuple(map(sum, zip(*members))) != tope or len(members) % 2 == 0:
            problems.append("decomposition members do not sum to the tope, or their number is even")
        if lam != delta:
            problems.append("lambda and delta complexes differ")
        if len(f) != self.T + 1 or f[0] != 1:
            problems.append(f"malformed f-vector {f}")
        if len(members) >= 5 and not passes:
            problems.append(f"Dehn-Sommerville check fails with {len(members)} members")
        payload = {"members": sorted(signs(flipped(self.flip, m)) for m in members), "f": list(f), "passes": passes}
        return problems, payload


class ChambersCLI(Workload):
    """The README's CLI chain, in process through cli.main on files: gen
    moment_curve, topes, then cycle find / cycle validate --topes / census for
    PER_RUN DFS seeds per instance, which the seed draws from a pool of 32."""

    name = "chambers_cli"
    unit = "cli_calls"
    INSTANCES = (("t7r4", 7, 4), ("t6r5", 6, 5))
    DFS_POOL = tuple(range(32))
    PER_RUN = 3

    workdir = None

    def setup(self, tc, seed: int, scratch_dir: str) -> None:
        self.tc = tc
        rng = random.Random(seed)
        os.makedirs(scratch_dir, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="chambers-", dir=scratch_dir)
        self.items = [item for name, t, r in self.INSTANCES
                      for item in self._chain(name, t, r, rng.sample(self.DFS_POOL, self.PER_RUN))]

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None

    def _chain(self, name: str, t: int, r: int, dfs_seeds) -> list[Item]:
        path = lambda what: os.path.join(self.workdir, f"{name}-{what}.json")
        arr, topes = path("arrangement"), path("topes")
        items = [
            Item(f"{name}/gen", (("gen", "moment_curve", "--t", str(t), "--r", str(r), "--output", arr), arr, t, r)),
            Item(f"{name}/topes", (("topes", "--arrangement", arr, "--output", topes), topes, t, r)),
        ]
        for s in dfs_seeds:
            cyc, val, cen = path(f"cycle{s}"), path(f"validate{s}"), path(f"census{s}")
            items += [
                Item(f"{name}/find/{s}", (("cycle", "find", "--topes", topes, "--seed", str(s), "--output", cyc), cyc, t, r)),
                Item(f"{name}/validate/{s}",
                     (("cycle", "validate", "--cycle", cyc, "--topes", topes, "--output", val), val, t, r)),
                Item(f"{name}/census/{s}", (("census", "--topes", topes, "--cycle", cyc, "--output", cen), cen, t, r)),
            ]
        return items

    def reference_passes(self):
        for name, t, r in self.INSTANCES:
            yield self._chain(name, t, r, self.DFS_POOL)

    def call(self, item: Item):
        argv, out_path, _, _ = item.args
        code = self.tc.cli.main(list(argv))
        return code, out_path

    def check(self, item: Item, out) -> tuple[list[str], Any]:
        code, out_path = out
        if code != 0:
            return [f"exit code {code}"], {"exit": code}
        with open(out_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        _, t, r = item.args[1:]
        kind = item.key.split("/")[1]
        chambers = 2 * sum(comb(t - 1, i) for i in range(r))  # generic central arrangement
        problems = []
        if kind == "gen":
            if doc.get("t") != t or doc.get("dim") != r or len(doc.get("normals", ())) != t:
                problems.append("arrangement document has the wrong shape")
        elif kind == "topes":
            topes = doc.get("topes", [])
            flipped = {v.translate(str.maketrans("+-", "-+")) for v in topes}
            if len(topes) != chambers or len(set(topes)) != chambers or flipped != set(topes):
                problems.append(f"{len(topes)} topes, expected {chambers} distinct and closed under negation")
            if any(len(v) != t for v in topes):
                problems.append("tope of the wrong length")
        elif kind == "find":
            vertices = doc.get("vertices", [])
            if doc.get("found") is False or len(vertices) != 2 * t:
                problems.append("no symmetric cycle of 2t vertices found")
        elif kind == "validate":
            if doc.get("ok") is not True or doc.get("violations") != []:
                problems.append(f"cycle rejected: {doc.get('violations')}")
        elif kind == "census":
            hist = {int(j): n for j, n in doc.get("histogram", {}).items()}
            if sum(hist.values()) != chambers or any(j % 2 == 0 for j in hist):
                problems.append(f"census histogram {hist} does not cover {chambers} topes with odd sizes")
        return problems, doc


class NuFan(Workload):
    """The ``nu`` part of ``fvectors``.  Reorientations of the t=11 totally
    cyclic fan that pass the half-plane condition: the condition again, then
    nu counts against the delta f-vector.

    The items are the first ITEMS reorientations of a fixed candidate list
    that pass the condition.  The seed draws a permutation of the ground set
    and applies it to every vector, tope and cycle vertex: the half-plane
    condition, the nu counts and the f-vector do not depend on the order of
    the elements, so each seed checks the same answers on other inputs."""

    T = 11
    CANDIDATES = 8
    ITEMS = 2

    def setup(self, tc, seed: int, scratch_dir: str) -> None:
        self.tc = tc
        self.perm = random.Random(seed).sample(range(self.T), self.T)
        self.items = self._items()

    def _items(self) -> list[Item]:
        tc = self.tc
        arr = tc.arrangements.totally_cyclic_fan(self.T)
        cycle = tc.cycles.find_symmetric_cycle(tc.arrangements.enumerate_topes(arr))
        self.cycle = tc.cycles.symmetric_cycle(self._permuted(v) for v in cycle)
        items = []
        for tope in random_topes(13013, self.T, self.CANDIDATES):
            reoriented = [tuple(s * c for c in n) for s, n in zip(tope, arr.normals)]
            if len(items) < self.ITEMS and tc.oracles.check_halfplane_condition(reoriented).holds:
                items.append(Item(signs(tope), (self._permuted(tope), self._permuted(reoriented))))
        return items

    def _permuted(self, v) -> tuple:
        return tuple(v[i] for i in self.perm)

    def reference_passes(self):
        self.perm = range(self.T)
        yield self._items()

    def call(self, item: Item):
        tope, reoriented = item.args
        tc = self.tc
        half = tc.oracles.check_halfplane_condition(reoriented)
        nu = tc.oracles.nu_counts(reoriented)
        f = tc.complexes.long_f_vector(tc.complexes.delta_face_masks(tope, self.cycle), self.T)
        return half, nu, f

    def check(self, item: Item, out) -> tuple[list[str], Any]:
        half, nu, f = out
        t = self.T
        problems = []
        if not half.holds:
            problems.append("the half-plane condition no longer holds")
        if tuple(nu) != tuple(f):
            problems.append(f"nu {nu} != delta f-vector {f}")
        if (nu[0], nu[1], nu[2], nu[t - 1], nu[t]) != (1, t, comb(t, 2), 0, 0):
            problems.append(f"boundary rows of nu fail: {nu}")
        payload = {"holds": half.holds, "min_count": half.min_count, "nu": list(nu)}
        return problems, payload


class FVectors(Workload):
    """The paper's two f-vector identities in one pass: Lambda = Delta with
    the Dehn-Sommerville check on hypercube topes (FVectorDS, keys ``ds/...``)
    and nu = Delta on reorientations of the totally cyclic fan (NuFan, keys
    ``nu/...``)."""

    name = "fvectors"
    unit = "items"
    PARTS = {"ds": FVectorDS, "nu": NuFan}

    def setup(self, tc, seed: int, scratch_dir: str) -> None:
        self.parts = {prefix: part() for prefix, part in self.PARTS.items()}
        self.items = []
        for prefix, part in self.parts.items():
            part.setup(tc, seed, scratch_dir)
            self.items += self._wrapped(prefix, part.items)

    @staticmethod
    def _wrapped(prefix: str, items) -> list[Item]:
        return [Item(f"{prefix}/{item.key}", (prefix, item), item.units) for item in items]

    def reference_passes(self):
        for prefix, part in self.parts.items():
            for items in part.reference_passes():
                yield self._wrapped(prefix, items)

    def call(self, item: Item):
        prefix, inner = item.args
        return self.parts[prefix].call(inner)

    def check(self, item: Item, out) -> tuple[list[str], Any]:
        prefix, inner = item.args
        return self.parts[prefix].check(inner, out)


WORKLOADS = {w.name: w for w in (CensusHypercube, FVectors, ChambersCLI)}
