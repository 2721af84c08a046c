"""Seeded inputs, CLI job lists and answer checks for the three workloads.

Nothing here imports the program.  Inputs are built from tensor products of
per-coordinate vectors whose eigenspace is known by construction, and every
expected answer comes from that construction, from the paper's theorems or
from the independent neighbor-list oracle below, never from the code under
test.

A vector on one coordinate is either constant (it lies in U_0(1,q)) or sums
to zero (it lies in U_1(1,q)).  Tensoring adds eigenspace indices, so a
product with w zero-sum factors lies in U_w(n,q).  A sum of such products
has a known component in every U_w, hence a known profile and membership.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

# -- words, HGF files and the independent oracle ---------------------------


def digits(index: int, n: int, q: int) -> tuple[int, ...]:
    out = []
    for _ in range(n):
        index, rem = divmod(index, q)
        out.append(rem)
    return tuple(reversed(out))


def index_of(word, q: int) -> int:
    value = 0
    for s in word:
        value = value * q + s
    return value


def write_hgf(path: str, n: int, q: int, values) -> None:
    lines = [f"{n} {q}"]
    for index, v in enumerate(values):
        if v:
            v = Fraction(v)
            text = str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
            lines.append(" ".join(map(str, digits(index, n, q))) + " " + text)
    data = "\n".join(lines) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(data)


def read_hgf(path: str) -> tuple[int, int, list[Fraction]]:
    with open(path, encoding="ascii") as fh:
        rows = [line.split() for line in fh if line.split("#", 1)[0].strip()]
    n, q = int(rows[0][0]), int(rows[0][1])
    values = [Fraction(0)] * q**n
    for row in rows[1:]:
        values[index_of(map(int, row[:n]), q)] = Fraction(row[n])
    return n, q, values


def neighbor_lists(n: int, q: int) -> list[list[int]]:
    out = []
    for x in range(q**n):
        w = digits(x, n, q)
        out.append([
            index_of(w[:r] + (s,) + w[r + 1:], q)
            for r in range(n) for s in range(q) if s != w[r]
        ])
    return out


def annihilated(values, n: int, q: int, lo: int, hi: int) -> bool:
    """Whether prod over t in [lo,hi] of (A - lambda_t) kills f, i.e. f in U_[lo,hi]."""
    nbrs = neighbor_lists(n, q)
    f = list(values)
    for t in range(lo, hi + 1):
        lam = n * (q - 1) - q * t
        f = [sum(f[y] for y in nbrs[x]) - lam * f[x] for x in range(len(f))]
    return not any(f)


def support(values) -> int:
    return sum(1 for v in values if v)


# -- products -----------------------------------------------------------------


def tensor(blocks) -> list:
    """Tensor product of blocks; the first block is the most significant."""
    out = [1]
    for b in blocks:
        out = [x * y for x in out for y in b]
    return out


def permute(values, n: int, q: int, sigma) -> list:
    """g(x) = f(x[sigma[0]], ..., x[sigma[n-1]])."""
    out = []
    for x in range(q**n):
        w = digits(x, n, q)
        out.append(values[index_of([w[sigma[p]] for p in range(n)], q)])
    return out


def scaled(values, c) -> list:
    return [c * v for v in values]


def added(f, g) -> list:
    return [a + b for a, b in zip(f, g)]


def constant_vector(rng, q) -> list[int]:
    return [rng.choice((-3, -2, -1, 1, 2, 3))] * q


def zero_sum_vector(rng, q) -> list[int]:
    """A vector in U_1(1,q) with no zero entry."""
    while True:
        v = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(q - 1)]
        if sum(v):
            return v + [-sum(v)]


def weight_product(rng, n: int, q: int, w: int) -> list[int]:
    """A product of constant and zero-sum vectors lying in U_w(n,q), with no zero."""
    deviating = set(rng.sample(range(n), w))
    return tensor(zero_sum_vector(rng, q) if r in deviating else constant_vector(rng, q)
                  for r in range(n))


@dataclass
class Dense:
    """A dense function together with its exact component in every U_w."""

    n: int
    q: int
    components: dict[int, list[int]]

    @property
    def values(self) -> list[int]:
        total = [0] * self.q**self.n
        for comp in self.components.values():
            total = added(total, comp)
        return total

    @property
    def profile(self) -> list[int]:
        return sorted(w for w, comp in self.components.items() if any(comp))


def dense_function(rng, n: int, q: int, weights) -> Dense:
    """Sum of weight products; the first is scaled to dominate, so no entry is 0."""
    terms = [(w, weight_product(rng, n, q, w)) for w in weights]
    dominance = 1 + sum(max(map(abs, t)) for _, t in terms[1:])
    terms[0] = (terms[0][0], scaled(terms[0][1], dominance))
    components: dict[int, list[int]] = {}
    for w, t in terms:
        components[w] = added(components.get(w, [0] * q**n), t)
    return Dense(n, q, components)


# elementary factors of the paper, each a block over one or two coordinates

def a1(q, k, m) -> list[int]:
    return [1 if (x == k and y != m) else -1 if (y == m and x != k) else 0
            for x in range(q) for y in range(q)]


def a2(q, k, m) -> list[int]:
    return [1 if s == k else -1 if s == m else 0 for s in range(q)]


def a3(q) -> list[int]:
    return [1] * q


def a4(q, m) -> list[int]:
    return [1 if s == m else 0 for s in range(q)]


def family(n: int, i: int, j: int) -> str:
    return "F1" if i + j <= n else "F2"


def formula_support(n: int, q: int, i: int, j: int) -> int:
    if i + j <= n:
        return 2**i * (q - 1) ** i * q ** (n - i - j)
    return 2**i * (q - 1) ** (n - j)


def template(n: int, i: int, j: int) -> list[str]:
    """Factor kinds of F1(n,q,i,j) or F2(n,q,i,j) in canonical order."""
    if i + j <= n:
        return ["a1"] * i + ["a3"] * (n - i - j) + ["a4"] * (j - i)
    return ["a1"] * (n - j) + ["a2"] * (i + j - n) + ["a4"] * (j - i)


def random_factors(rng, n: int, q: int, i: int, j: int) -> list[tuple]:
    """Random factor list in the canonical F1/F2 order, as (kind, params)."""
    out = []
    for kind in template(n, i, j):
        if kind == "a1":
            out.append((kind, (rng.randrange(q), rng.randrange(q))))
        elif kind == "a2":
            out.append((kind, tuple(rng.sample(range(q), 2))))
        elif kind == "a4":
            out.append((kind, (rng.randrange(q),)))
        else:
            out.append((kind, ()))
    return out


def realize(factors, q: int, c=1) -> list:
    blocks = {"a1": a1, "a2": a2, "a3": a3, "a4": a4}
    return scaled(tensor(blocks[kind](q, *params) for kind, params in factors), c)


def factor_text(factors) -> str:
    return ";".join(f"{k}({','.join(map(str, p))})" if p else k for k, p in factors)


def parse_factor(text: str) -> tuple:
    kind, _, rest = text.partition("(")
    return kind, tuple(int(p) for p in rest.rstrip(")").split(",") if p)


# -- jobs ------------------------------------------------------------------------


@dataclass
class Job:
    tag: str
    argv: list[str]
    # check(exit code, stdout) -> None when the answer is right, else a reason
    check: Callable[[int, str], Optional[str]]
    # HGF files the program reads or writes in this job
    files: tuple[str, ...] = ()


def _json(out: str):
    return json.loads(out.strip().splitlines()[-1])


def _expect(pairs) -> Optional[str]:
    for what, got, want in pairs:
        if got != want:
            return f"{what}: got {got!r}, want {want!r}"
    return None


def _certificate_ok(cert, values, n, q, lo, hi) -> Optional[str]:
    """The certificate must rebuild the input: f.permute(sigma) == c * product."""
    if cert is None:
        return "certified without a certificate"
    if cert["family"] != family(n, lo, hi):
        return f"certificate family {cert['family']}"
    factors = [parse_factor(t) for t in cert["factors"]]
    if [k for k, _ in factors] != template(n, lo, hi):
        return f"certificate factors {cert['factors']} off the template"
    if permute(values, n, q, cert["sigma"]) != realize(factors, q, Fraction(cert["c"])):
        return "certificate does not rebuild the input"
    return None


def characterize_job(tag, path, values, n, q, lo, hi, status) -> Job:
    """characterize --json on a nonzero member of U_[lo,hi] with a known status."""
    bound = formula_support(n, q, lo, hi)

    def check(rc, out):
        if rc != 0:
            return f"exit code {rc}"
        r = _json(out)
        bad = _expect([("status", r["status"], status), ("support", r["support"], support(values)),
                       ("bound", r["bound"], bound),
                       ("meets_bound", r["meets_bound"], support(values) == bound)])
        if bad is None and status == "certified":
            bad = _certificate_ok(r["certificate"], values, n, q, lo, hi)
        return bad

    return Job(tag, ["characterize", path, "--lo", str(lo), "--hi", str(hi), "--json"],
               check, (path,))


def nonmember_characterize_job(tag, path, lo, hi) -> Job:
    def check(rc, out):
        return None if rc == 1 else f"exit code {rc}, want 1 for a non-member"

    return Job(tag, ["characterize", path, "--lo", str(lo), "--hi", str(hi), "--json"],
               check, (path,))


def file_is(path, values) -> Optional[str]:
    if not os.path.exists(path):
        return f"{os.path.basename(path)} not written"
    _, _, got = read_hgf(path)
    return None if got == [Fraction(v) for v in values] else f"{os.path.basename(path)} differs"


# -- spectral: dense members and non-members through verify, reduce, project ----

# (n, q, lo, hi) per vertex count; per slot, the commands run on it.  The
# largest sizes get fewer commands so one pass stays near ten seconds.
SPECTRAL_SIZES = [
    (4, 4, 1, 2, ("verify", "verify-non", "reduce", "project")),   # 256
    (4, 5, 0, 1, ("verify", "verify-non", "reduce", "project")),   # 625
    (5, 4, 2, 3, ("verify", "verify-non", "reduce", "project")),   # 1024
    (5, 5, 1, 3, ("verify-non", "reduce", "project")),             # 3125
    (6, 4, 2, 4, ("verify",)),                                     # 4096
]


def _range_weights(rng, lo, hi, count=3):
    return [rng.randint(lo, hi) for _ in range(count)]


def spectral_jobs(seed: int, workdir: str) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for n, q, lo, hi, commands in SPECTRAL_SIZES:
        size = q**n
        member = dense_function(rng, n, q, _range_weights(rng, lo, hi))
        mpath = os.path.join(workdir, f"member{size}.hgf")
        write_hgf(mpath, n, q, member.values)
        for command in commands:
            if command == "verify":
                jobs.append(_verify_job(f"verify.qn{size}", mpath, member, lo, hi))
            elif command == "verify-non":
                outside = [w for w in range(n + 1) if not lo <= w <= hi]
                non = dense_function(rng, n, q, _range_weights(rng, lo, hi) + [rng.choice(outside)])
                path = os.path.join(workdir, f"non{size}.hgf")
                write_hgf(path, n, q, non.values)
                jobs.append(_verify_job(f"verify-non.qn{size}", path, non, lo, hi))
            elif command == "reduce":
                jobs.append(_reduce_job(f"reduce.qn{size}", mpath, member, lo, hi,
                                        rng.randrange(n)))
            else:
                i = rng.choice(member.profile)
                out = os.path.join(workdir, f"project{size}.hgf")
                want = member.components[i]

                def check(rc, _out, out=out, want=want):
                    return f"exit code {rc}" if rc else file_is(out, want)

                jobs.append(Job(f"project.qn{size}", ["project", mpath, "--i", str(i), "-o", out],
                                check, (mpath, out)))
    return jobs


def _verify_job(tag, path, f: Dense, lo, hi) -> Job:
    profile = f.profile
    member = all(lo <= w <= hi for w in profile)

    def check(rc, out):
        if rc != 0:
            return f"exit code {rc}"
        r = _json(out)
        return _expect([("profile", r["profile"], profile), ("member", r["member"], member),
                        ("support", r["support"], support(f.values))])

    return Job(tag, ["verify", path, "--lo", str(lo), "--hi", str(hi), "--json"], check, (path,))


def _reduce_job(tag, path, f: Dense, lo, hi, coord) -> Job:
    n, q, values = f.n, f.q, f.values
    low = q ** (n - 1 - coord)
    slice_supports = [
        sum(1 for x in range(q**n) if values[x] and (x // low) % q == k) for k in range(q)
    ]

    def check(rc, out):
        if rc != 0:
            return f"exit code {rc}"
        r = _json(out)
        # the three slice descent rules hold for every member (paper, slice lemma)
        return _expect([("slice_supports", r["slice_supports"], slice_supports),
                        ("descent_precondition", r["descent_precondition"], True),
                        ("descent_cases", [c["passed"] for c in r["descent_cases"]],
                         [True, True, True])])

    return Job(tag, ["reduce", path, "--coord", str(coord + 1), "--lo", str(lo),
                     "--hi", str(hi), "--json"], check, (path,))


# -- search: the fixed paper instances ---------------------------------------

# (name, n, q, lo, hi, extra flags, minimum or None, lower bound, status of
# the witness under characterize).  q >= 3 balanced minimizers are F1
# products; a support-6 member of U_2(3,3) is below the F2 support 8.
SEARCH_INSTANCES = [
    ("3-3-0-1", 3, 3, 0, 1, (), 9, 9, "certified"),
    ("2-5-1-1", 2, 5, 1, 1, (), 8, 8, "certified"),
    ("3-3-2-2", 3, 3, 2, 2, (), 6, 6, "not in family"),
    ("3-3-2-2-noprune", 3, 3, 2, 2, ("--no-prune",), 6, 6, "not in family"),
    ("3-4-2-2-max5", 3, 4, 2, 2, ("--max-support", "5"), None, 6, None),
]
UNPRUNED = {"3-3-2-2-noprune"}


def search_jobs(seed: int, workdir: str) -> list[Job]:
    del seed  # the paper instances are fixed
    jobs = []
    for name, n, q, lo, hi, flags, minimum, lower, status in SEARCH_INSTANCES:
        path = os.path.join(workdir, f"witness-{name}.hgf")
        argv = ["minsupport", "--n", str(n), "--q", str(q), "--lo", str(lo), "--hi", str(hi),
                *flags, "--json", "--emit-witness", path]
        jobs.append(Job(f"minsupport.{name}", argv,
                        _minsupport_check(path, n, q, lo, hi, minimum, lower), (path,)))
        if status is not None:
            jobs.append(_witness_characterize_job(name, path, n, q, lo, hi, status))
    return jobs


def _minsupport_check(path, n, q, lo, hi, minimum, lower):
    def check(rc, out):
        r = _json(out)
        conclusive = minimum is not None
        bad = _expect([("exit code", rc, 0 if conclusive else 2),
                       ("minimum", r["minimum"], minimum), ("lower", r["lower"], lower),
                       ("conclusive", r["conclusive"], conclusive),
                       ("witness_support", r["witness_support"], minimum)])
        if bad or not conclusive:
            return bad or (f"{path} written" if os.path.exists(path) else None)
        _, _, w = read_hgf(path)
        if support(w) != minimum:
            return f"witness support {support(w)}"
        if not annihilated(w, n, q, lo, hi):
            return f"witness outside U_[{lo},{hi}]"
        return None

    return check


def _witness_characterize_job(name, path, n, q, lo, hi, status) -> Job:
    # the witness exists only after the search job, so read it when checking
    bound = formula_support(n, q, lo, hi)

    def check(rc, out):
        if rc != 0:
            return f"exit code {rc}"
        r = _json(out)
        _, _, w = read_hgf(path)
        bad = _expect([("status", r["status"], status), ("bound", r["bound"], bound),
                       ("meets_bound", r["meets_bound"], support(w) == bound)])
        if bad is None and status == "certified":
            bad = _certificate_ok(r["certificate"], w, n, q, lo, hi)
        return bad

    return Job(f"characterize.{name}", ["characterize", path, "--lo", str(lo), "--hi", str(hi),
                                        "--json"], check, (path,))


# -- certify: gen -> characterize on sparse inputs -----------------------------

# (n, q, i, j) product slots; F1 when i + j <= n, F2 otherwise.  i < j with
# i + j > n is the regime with no known characterization.
CERTIFY_PRODUCTS = [
    (3, 3, 1, 1), (4, 4, 1, 2), (4, 5, 2, 2), (6, 3, 2, 2),                 # F1
    (5, 4, 2, 3), (5, 5, 2, 3), (6, 4, 3, 3), (6, 4, 2, 2),
    (3, 4, 2, 2), (5, 4, 4, 4), (5, 5, 3, 3), (5, 5, 4, 4), (6, 4, 5, 5),   # F2, i = j
    (3, 5, 2, 3), (4, 4, 2, 3), (6, 4, 3, 4),                               # F2, i < j
]
# two products: not in family
CERTIFY_SUMS = [(4, 4, 1, 1), (4, 5, 3, 3), (5, 4, 2, 2), (5, 5, 3, 3)]
# product + one point: non-member
CERTIFY_PERTURBED = [(5, 4, 1, 2), (5, 5, 2, 2), (6, 4, 4, 4)]


def _random_c(rng) -> Fraction:
    return Fraction(rng.choice((1, -1, 2, -3)), rng.choice((1, 2)))


def _product_status(n, i, j) -> str:
    return "uncharacterized regime" if (i < j and i + j > n) else "certified"


def _gen_job(tag, path, n, q, i, j, factors, c, values) -> Job:
    argv = ["gen", "--family", family(n, i, j).lower(), "--n", str(n), "--q", str(q),
            "--i", str(i), "--j", str(j), "--factors", factor_text(factors),
            f"--c={c}", "-o", path]
    return Job(tag, argv, _gen_check(path, values, n, q, i, j), (path,))


def _gen_check(path, values, n, q, i, j):
    def check(rc, out):
        if rc != 0:
            return f"exit code {rc}"
        want = [f"support {support(values)}", f"member of U_[{i},{j}]({n},{q}): True"]
        return _expect([("stdout", out.strip().splitlines(), want)]) or file_is(path, values)

    return check


def certify_jobs(seed: int, workdir: str) -> list[Job]:
    rng = random.Random(seed)
    jobs = []

    def path(name):
        return os.path.join(workdir, name + ".hgf")

    for n, q, i, j in CERTIFY_PRODUCTS:
        tag = f"{n}-{q}-{i}-{j}"
        factors, c = random_factors(rng, n, q, i, j), _random_c(rng)
        values = realize(factors, q, c)
        jobs.append(_gen_job(f"gen.{tag}", path(f"gen-{tag}"), n, q, i, j, factors, c, values))
        status = _product_status(n, i, j)
        jobs.append(characterize_job(f"characterize.{tag}", path(f"gen-{tag}"), values,
                                     n, q, i, j, status))
        sigma = list(range(n))
        rng.shuffle(sigma)
        moved = permute(values, n, q, sigma)
        write_hgf(path(f"perm-{tag}"), n, q, moved)
        jobs.append(characterize_job(f"characterize.perm.{tag}", path(f"perm-{tag}"), moved,
                                     n, q, i, j, status))

    # fixtures: g in U_[1,2](2,q) is +1 at (0,0) and -1 at (q-1,q-1); h attains
    # the q = 4 bound outside F2; v has support 6 below the q = 3 formula value 8
    gq = rng.choice((4, 5, 6))
    g = [0] * gq**2
    g[0], g[-1] = 1, -1
    for name, argv, n, q, lo, hi, supp, status, values in (
        ("g", ["--q", str(gq)], 2, gq, 1, 2, 2, "uncharacterized regime", g),
        ("h", [], 3, 4, 2, 2, 12, "not in family", None),
        ("v", [], 3, 3, 2, 2, 6, "not in family", None),
    ):
        out = path(f"fixture-{name}")
        jobs.append(Job(f"gen.{name}", ["gen", "--family", f"counterexample-{name}", *argv,
                                        "-o", out],
                        _fixture_check(out, n, q, lo, hi, supp, values), (out,)))
        jobs.append(_fixture_characterize_job(name, out, n, q, lo, hi, status))

    for n, q, i, j in CERTIFY_SUMS:
        tag = f"{n}-{q}-{i}-{j}"
        while True:
            parts = []
            for _ in range(2):
                sigma = list(range(n))
                rng.shuffle(sigma)
                parts.append(permute(realize(random_factors(rng, n, q, i, j), q, _random_c(rng)),
                                     n, q, sigma))
            values = added(*parts)
            # an F1/F2 product has exactly the formula support, so a sum with
            # any other nonzero support is in U_[i,j] but in no product family
            if support(values) not in (0, formula_support(n, q, i, j)):
                break
        write_hgf(path(f"sum-{tag}"), n, q, values)
        jobs.append(characterize_job(f"characterize.sum.{tag}", path(f"sum-{tag}"), values,
                                     n, q, i, j, "not in family"))

    for n, q, i, j in CERTIFY_PERTURBED:
        # a point mass has a nonzero component in every U_w, so adding one to
        # a member of U_[i,j] != U_[0,n] leaves U_[i,j]
        tag = f"{n}-{q}-{i}-{j}"
        values = realize(random_factors(rng, n, q, i, j), q, _random_c(rng))
        x = rng.choice([t for t, v in enumerate(values) if not v])
        values[x] = rng.choice((1, -1))
        write_hgf(path(f"perturbed-{tag}"), n, q, values)
        jobs.append(nonmember_characterize_job(f"characterize.perturbed.{tag}",
                                               path(f"perturbed-{tag}"), i, j))
    return jobs


def _fixture_check(path, n, q, lo, hi, supp, values):
    def check(rc, out):
        if rc != 0:
            return f"exit code {rc}"
        want = [f"support {supp}", f"member of U_[{lo},{hi}]({n},{q}): True"]
        bad = _expect([("stdout", out.strip().splitlines(), want)])
        if bad or values is None:
            return bad
        return file_is(path, values)

    return check


def _fixture_characterize_job(name, path, n, q, lo, hi, status) -> Job:
    bound = formula_support(n, q, lo, hi)

    def check(rc, out):
        if rc != 0:
            return f"exit code {rc}"
        r = _json(out)
        _, _, w = read_hgf(path)
        if not annihilated(w, n, q, lo, hi):
            return f"fixture {name} outside U_[{lo},{hi}]"
        return _expect([("status", r["status"], status), ("bound", r["bound"], bound),
                        ("meets_bound", r["meets_bound"], support(w) == bound)])

    return Job(f"characterize.{name}", ["characterize", path, "--lo", str(lo), "--hi", str(hi),
                                        "--json"], check, (path,))


WORKLOADS = {"spectral": spectral_jobs, "search": search_jobs, "certify": certify_jobs}
