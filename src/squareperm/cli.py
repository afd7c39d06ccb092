"""Command-line front end for the square-permutation toolkit.

Every subcommand is deterministic, and every one that draws takes a
master ``--seed``: a report embeds the full resolved configuration, and
rerunning with that configuration reproduces the report byte for byte.
JSON reports carry a schema-version field, floats are printed to 12
significant digits, exact rationals as ``p/q``.
The payload is written as it is built, to stdout or to the ``--output``
file, which is opened before the subcommand does any work but emptied
only when the report starts, and is either complete or absent; logs
and errors go to stderr, and the exit status is 0 only when everything
the subcommand asserted holds.

Environment variables ``SQUAREPERM_SEED`` and ``SQUAREPERM_THREADS``
supply defaults for ``--seed`` and ``--threads``; explicit flags win.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import stat
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from functools import partial
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .core import (
    DEFAULT_WORK_BOUND,
    MAX_ENUMERATION_SIZE,
    as_permutation,
    coc_proportion,
    count_square_formula,
    enumerate_square,
    is_square,
    occ_proportion,
)
from .encoding import (
    AnchoredPair,
    MatchingFailure,
    is_regular,
    label_stats,
    petrov_check,
    project,
    reconstruct,
)
from .fluctuations import PATH_KINDS, _endpoint_stats, replicate_path_values
from .local_limits import (
    classify_phi,
    e_counts,
    e_counts_brute,
    empirical_window_distribution,
    limit_p,
    restrict,
    build_psi,
    separating_line_exists,
)
from .permuton import (
    box_distance_grid,
    grid_cdf,
    lambda_estimate,
    mu_z_rect,
)
from .sampler import (
    SamplingBudgetExceeded,
    replicate_rng,
    _sample_square,
    sample_regular,
    sample_square_approx,
)

__all__ = ["main"]

SCHEMA = "squareperm-report/1"


def _env_default(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"environment variable {name}={raw!r} is not an integer") from exc


def _resolve_seed(args: argparse.Namespace) -> int:
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    return _env_default("SQUAREPERM_SEED", 0)


def _resolve_threads(args: argparse.Namespace) -> int:
    if getattr(args, "threads", None) is not None:
        value = int(args.threads)
    else:
        value = _env_default("SQUAREPERM_THREADS", 1)
    if value < 1:
        raise ValueError("thread count must be positive")
    return min(value, os.cpu_count() or 1)


def _jsonable(obj: Any) -> Any:
    """Normalize a report tree: 12-significant-digit floats, p/q rationals.

    1-d integer arrays pass through unchanged; :func:`_dumps` writes them
    chunk by chunk.
    """
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, np.ndarray):
        if obj.ndim == 1 and obj.dtype.kind in "iu":
            return obj
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


#: Array values per chunk of :func:`_join_ints`: its digit buffer holds
#: ``(sign + width + len(sep)) * _CHUNK`` bytes, well inside a core's cache.
_CHUNK = 1 << 15


@contextmanager
def _opened(path: str) -> Iterator[Callable[[Iterable[str]], None]]:
    """Open the ``--output`` file, without emptying it, and yield the
    function that writes a report into it.

    The file is emptied when the report starts.  If the block fails, a
    regular file that this run created or began to write is removed, so
    it is either complete or absent, and an earlier report survives a
    run that fails before its own report starts.
    """
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        created = True
    except FileExistsError:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        created = False
    started = regular = False

    def write(chunks: Iterable[str]) -> None:
        nonlocal started
        started = True
        if regular:
            f.truncate(0)
        f.writelines(chunks)

    try:
        with open(fd, "w", encoding="utf-8") as f:
            regular = stat.S_ISREG(os.fstat(fd).st_mode)
            yield write
    except BaseException:
        if regular and (created or started):
            os.unlink(path)
        raise


def _emit(chunks: Iterable[str], args: argparse.Namespace) -> None:
    """Write a payload's chunks, as they come, to stdout or the ``--output`` file.

    ``args.output`` is None or the writer of the file :func:`main` opened
    before the subcommand ran (see :func:`_opened`).  A stdout whose
    reader has gone is pointed at the null device before the error
    propagates, so the flush at exit raises nothing more.
    """
    write = getattr(args, "output", None)
    if write is None:
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise
        return
    write(chunks)


def _join_ints(arr: np.ndarray, sep: str) -> Iterator[str]:
    """``sep.join(map(str, arr.tolist()))`` for a 1-d integer array, in chunks.

    Each chunk covers :data:`_CHUNK` values, and all chunks are laid out
    in one reused ``(sign + width + len(sep), _CHUNK)`` byte buffer: each
    value gets one column, with an optional sign row, the decimal digits
    of its magnitude from divisions by 10, then the separator, which must
    be ASCII without NUL.  Absent signs, leading zeros and the separator
    after the last value are NUL.  One transpose lays a chunk's columns
    end to end, and deleting the NULs in one ``bytes.translate`` pass
    leaves its text; ``replace`` would copy once per NUL, and nearly every
    value has one.  Magnitudes are uint32 when every value is in
    ``[0, 2^32)`` and uint64 otherwise, which holds the magnitude of the
    minimum of int64 exactly.  Nothing of the array's full size is
    allocated.
    """
    n = arr.size
    if n == 0:
        return
    lo, hi = int(arr.min()), int(arr.max())
    top = max(hi, -lo)
    width = len(str(top))
    lead = int(lo < 0)
    dtype = np.uint64 if lead or top >= 2**32 else np.uint32
    sep_row = np.frombuffer(sep.encode("ascii"), dtype=np.uint8)
    buf = np.empty((lead + width + sep_row.size, min(n, _CHUNK)), dtype=np.uint8)
    buf[lead + width :] = sep_row[:, None]
    for start in range(0, n, _CHUNK):
        part = arr[start : start + _CHUNK]
        chunk = buf[:, : part.size]
        rest = part.astype(dtype)
        if lead:
            neg = part < 0
            # a negative value cast to uint64 is 2^64 - |v|; negation undoes it
            np.negative(rest, out=rest, where=neg)
            np.multiply(neg, ord("-"), out=chunk[0], dtype=np.uint8)
        for k in range(width):
            row = chunk[lead + width - 1 - k]
            quot = rest // 10
            np.subtract(rest, quot * 10, out=row, casting="unsafe")
            row += ord("0")
            if k:  # a leading zero, once nothing is left, becomes NUL
                row *= rest != 0
            rest = quot
        if start + part.size == n:
            chunk[lead + width :, -1] = 0
        yield chunk.T.tobytes().translate(None, b"\x00").decode("ascii")


def _dumps(obj: Any, level: int = 0) -> Iterator[str]:
    """``json.dumps(obj, sort_keys=True, indent=2)`` of a normalized tree, in chunks.

    The standard encoder falls back to its pure-Python path whenever it
    indents, one generator step per value; here a 1-d integer array is
    yielded by :func:`_join_ints` chunk by chunk, and every scalar and key
    still goes through ``json.dumps``.  The text around the arrays is
    yielded as it is made, each key with its scalar value as one chunk.
    """
    if not isinstance(obj, (dict, list, np.ndarray)):
        yield json.dumps(obj)
        return
    brackets = "{}" if isinstance(obj, dict) else "[]"
    if not len(obj):
        yield brackets
        return
    pad = "\n" + "  " * (level + 1)
    sep = "," + pad
    yield brackets[0] + pad
    if isinstance(obj, np.ndarray):
        yield from _join_ints(obj, sep)
    else:
        if isinstance(obj, dict):
            items = ((f"{json.dumps(k)}: ", obj[k]) for k in sorted(obj))
        else:
            items = (("", v) for v in obj)
        for i, (key, v) in enumerate(items):
            head = f"{sep if i else ''}{key}"
            if isinstance(v, (dict, list, np.ndarray)):
                yield head
                yield from _dumps(v, level + 1)
            else:  # a scalar joins its key, one chunk per entry
                yield head + json.dumps(v)
    yield f"\n{'  ' * level}{brackets[1]}"


def _config(args: argparse.Namespace, **resolved: Any) -> dict[str, Any]:
    """The report's config block: the parsed options that shape the payload.

    ``resolved`` lays the resolved seed and normalized values over the raw
    ones; options left unset are dropped.
    """
    config = {k: v for k, v in vars(args).items() if k not in ("func", "threads", "output")}
    config.update(resolved)
    return {k: v for k, v in config.items() if v is not None}


def _report(config: dict[str, Any], body: dict[str, Any]) -> Iterator[str]:
    doc = {"schema": SCHEMA, "version": __version__, "config": _jsonable(config)}
    doc.update(_jsonable(body))
    yield from _dumps(doc)
    yield "\n"


def _parse_perm(text: str) -> tuple[int, ...]:
    text = text.strip()
    if re.fullmatch(r"\d+", text) and "0" not in text:
        values: Sequence[int] = [int(ch) for ch in text]
    else:
        values = [int(tok) for tok in re.split(r"[\s,]+", text) if tok]
    return as_permutation(values)


def _perm_key(pi: Sequence[int]) -> str:
    if len(pi) <= 9:
        return "".join(str(v) for v in pi)
    return " ".join(str(v) for v in pi)


def _perm_line(p: Sequence[int] | np.ndarray) -> str:
    return "".join(_join_ints(np.asarray(p), " "))


def _plain_lines(perms: Iterable[np.ndarray]) -> Iterator[str]:
    """The plain payload of permutations: one space-separated line each."""
    for p in perms:
        yield from _join_ints(p, " ")
        yield "\n"


# ---------------------------------------------------------------- sample


def cmd_sample(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    n, count = args.size, args.count
    if count < 1:
        raise ValueError("count must be positive")
    perms = []
    attempts = 0
    for k in range(count):
        square, stats = _sample_square(n, replicate_rng(seed, k))
        perms.append(square[1])
        attempts += stats.attempts
        # the pair (the draw builds no label tables) and the record masks:
        # not kept through the next draw or the report
        del square
    if args.format == "plain":
        _emit(_plain_lines(perms), args)
        return 0
    body = {"permutations": perms, "attempts": attempts}
    _emit(_report(_config(args, seed=seed), body), args)
    return 0


# ------------------------------------------------------------- enumerate


def cmd_enumerate(args: argparse.Namespace) -> int:
    n = args.size
    formula = count_square_formula(n) if n >= 3 else None
    exhaustive = len(enumerate_square(n)) if n <= MAX_ENUMERATION_SIZE else None
    if formula is None and exhaustive is None:
        raise ValueError(f"size {n} has neither a formula nor a feasible enumeration")
    match = (formula == exhaustive) if (formula is not None and exhaustive is not None) else None
    value = formula if formula is not None else exhaustive
    if args.format == "plain":
        _emit((f"{value}\n",), args)
        return 0 if match is not False else 1
    body = {"n": n, "formula": formula, "exhaustive": exhaustive, "match": match}
    _emit(_report(_config(args), body), args)
    return 0 if match is not False else 1


# ---------------------------------------------------------- encode/decode


def cmd_encode(args: argparse.Namespace) -> int:
    p = _parse_perm(args.perm)
    pair = project(p)
    if args.format == "plain":
        _emit((pair.to_text(),), args)
        return 0
    _emit(_report(_config(args, perm=_perm_line(p)), {"pair": pair.to_json_obj()}), args)
    return 0


def cmd_decode(args: argparse.Namespace) -> int:
    pair = AnchoredPair(args.x, args.y, args.z0)
    perm = reconstruct(pair)
    if not is_square(perm):
        raise MatchingFailure("decoded sequence is not a square permutation")
    if args.format == "plain":
        _emit(_plain_lines([perm]), args)
        return 0
    _emit(_report(_config(args), {"permutation": perm}), args)
    return 0


# ------------------------------------------------------ permuton-distance


def cmd_permuton_distance(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    n, G, samples = args.size, args.grid, args.samples
    if samples < 1:
        raise ValueError("need at least one sample")
    # checked before any draw, which can take seconds at large --size
    if G < 2:
        raise ValueError("--grid must be at least 2")
    rows = []
    for k in range(samples):
        perm = sample_square_approx(n, replicate_rng(seed, k))
        z0 = int(np.flatnonzero(perm == 1)[0]) + 1
        z = z0 / n
        d = box_distance_grid(perm, z, G)
        rows.append({"n": n, "sample_id": k, "z0_over_n": z, "d_grid": d})
    if args.format == "csv":
        lines = ["n,sample_id,z0_over_n,d_grid"]
        for r in rows:
            lines.append(
                f"{r['n']},{r['sample_id']},{r['z0_over_n']:.12g},{r['d_grid']:.12g}"
            )
        _emit((line + "\n" for line in lines), args)
        return 0
    _emit(_report(_config(args, seed=seed), {"rows": rows}), args)
    return 0


# ---------------------------------------------------------- pattern-limit


def cmd_pattern_limit(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    pi = _parse_perm(args.pattern)
    est, err = lambda_estimate(pi, args.z, args.trials, replicate_rng(seed, 0))
    body = {"estimate": est, "stderr": err}
    _emit(_report(_config(args, seed=seed, pattern=_perm_key(pi)), body), args)
    return 0


# ----------------------------------------------------------- fluctuations


def cmd_fluctuations(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    threads = _resolve_threads(args)
    n, frac, reps = args.size, args.anchor_fraction, args.replicates
    if not 0.5 < frac < 1.0:
        raise ValueError("anchor fraction must lie strictly between 0.5 and 1")
    times = tuple(float(tok) for tok in args.times.split(",") if tok)
    t_n = int(frac * n)
    # the executor is the only thing the thread count changes
    with ProcessPoolExecutor(threads) if threads > 1 else nullcontext() as pool:
        chunk = max(1, reps // (4 * threads))
        mapper = map if pool is None else partial(pool.map, chunksize=chunk)
        stats = _endpoint_stats(mapper, n, t_n, times, reps, seed)
    body = {
        "variances": {k: stats.variances[k] for k in PATH_KINDS},
        "variance_se": {k: stats.variance_se[k] for k in PATH_KINDS},
        "variance_target": stats.variance_target,
        "covariances": {f"{a}:{b}": v for (a, b), v in stats.covariances.items()},
        "covariance_se": {f"{a}:{b}": v for (a, b), v in stats.covariance_se.items()},
        "covariance_target": {
            f"{a}:{b}": v for (a, b), v in stats.covariance_target.items()
        },
    }
    _emit(_report(_config(args, seed=seed, anchor=t_n, times=list(times)), body), args)
    return 0


# ------------------------------------------------------------ local-stats


def cmd_local_stats(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    n, h, count = args.size, args.radius, args.count
    if count < 1:
        raise ValueError("need at least one permutation")
    roots: int | str
    if args.roots == "all":
        roots = "all"
    else:
        try:
            roots = int(args.roots)
        except ValueError:
            roots = 0
        if roots < 1:
            raise ValueError(f"--roots takes 'all' or a positive integer, not {args.roots!r}")
    size = 2 * h + 1
    # the limit table lists every pattern of the window size; checked
    # before any draw
    if h < 1:
        raise ValueError("--radius must be at least 1")
    if math.factorial(size) > DEFAULT_WORK_BOUND:
        raise ValueError(
            f"--radius {h} needs a limit table over {size}! = {math.factorial(size)} "
            f"patterns, over the bound {DEFAULT_WORK_BOUND}; use a smaller --radius"
        )
    if n < size:
        raise ValueError(f"--size must be at least 2 * --radius + 1 = {size}")
    totals: dict[tuple[int, ...], float] = {}
    windows_per_perm = (n - 2 * h) if roots == "all" else roots
    for k in range(count):
        rng = replicate_rng(seed, k)
        perm = sample_square_approx(n, rng)
        dist = empirical_window_distribution(perm, h, roots, rng)
        for rp, freq in dist.items():
            totals[rp.pattern] = totals.get(rp.pattern, 0.0) + freq / count
    freqs = {}
    theory = {}
    z_scores = {}
    total_windows = count * windows_per_perm
    for pi in itertools.permutations(range(1, size + 1)):
        p_theory = limit_p(pi)
        freq = totals.get(pi, 0.0)
        key = _perm_key(pi)
        freqs[key] = freq
        theory[key] = p_theory
        p = float(p_theory)
        se = math.sqrt(p * (1.0 - p) / total_windows)
        z_scores[key] = (freq - p) / se if se > 0 else 0.0
    body = {
        "frequencies": freqs,
        "theory": theory,
        "z_scores": z_scores,
        "windows": total_windows,
    }
    _emit(_report(_config(args, seed=seed), body), args)
    return 0


# ---------------------------------------------------------- pattern-stats


def cmd_pattern_stats(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    pi = _parse_perm(args.pattern)
    n, count, samples = args.size, args.count, args.samples
    if count < 1:
        raise ValueError("need at least one sample")
    if samples is not None:
        if args.consecutive:
            raise ValueError("--samples estimates classical counts; drop it or --consecutive")
        if samples < 1:
            raise ValueError("--samples needs at least one sample")
    # the bound occ_proportion applies to an exact count, checked before any
    # draw; at k = 3 it admits sizes up to n = 272
    steps = math.comb(max(n, 0), len(pi)) * len(pi)
    if samples is None and not args.consecutive and len(pi) >= 3 and steps > DEFAULT_WORK_BOUND:
        raise ValueError(
            f"counting classical occurrences of a size-{len(pi)} pattern at size {n} "
            f"needs {steps} steps, over the bound {DEFAULT_WORK_BOUND}; use "
            "--samples N for a Monte Carlo estimate, --consecutive or a pattern "
            "of size at most 2"
        )
    values: list[Fraction | float] = []
    errors: list[float] = []  # standard errors of Monte Carlo estimates
    for k in range(count):
        gen = replicate_rng(seed, k)
        perm = sample_square_approx(n, gen)
        if args.consecutive:
            values.append(coc_proportion(pi, perm))
        elif samples is not None:
            # the Monte Carlo subsets continue the stream of the draw
            est, err = occ_proportion(pi, perm, samples=samples, rng=gen)
            values.append(est)
            errors.append(err)
        else:
            values.append(occ_proportion(pi, perm))
    floats = np.array([float(v) for v in values])
    body: dict[str, Any] = {
        "per_sample": values if samples is None else [list(e) for e in zip(values, errors)],
        "mean": float(floats.mean()),
        "sd": float(floats.std(ddof=1)) if count > 1 else 0.0,
    }
    if args.format == "plain":
        _emit((f"{body['mean']:.12g}\n",), args)
        return 0
    _emit(_report(_config(args, seed=seed, pattern=_perm_key(pi)), body), args)
    return 0


# ----------------------------------------------------------------- verify


def _require(cond: bool, message: str) -> None:
    # an explicit raise, so the checks still run under python -O
    if not cond:
        raise AssertionError(message)


def _verify_checks(seed: int) -> list[tuple[str, Callable[[], None]]]:
    def counts() -> None:
        for n in range(3, 8):
            _require(len(enumerate_square(n)) == count_square_formula(n), f"n={n}")

    def roundtrip() -> None:
        for p in enumerate_square(6):
            q = tuple(reconstruct(project(p)).tolist())
            _require(q == p, f"{p} reconstructs to {q}")

    def injectivity() -> None:
        seen = set()
        for p in enumerate_square(6):
            pair = project(p)
            _require(pair not in seen, f"{p} projects onto a pair already seen")
            seen.add(pair)

    def label_identities() -> None:
        rng = replicate_rng(seed, 101)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            bits = rng.integers(0, 2, n)
            s = "".join("DU"[b] for b in bits)
            st = label_stats(s)
            for lab in "DU":
                for j in range(1, st.count(lab) + 1):
                    _require(st.ct(lab, st.pos(lab, j)) == j, f"ct(pos) != id on {s}")
                for i in range(1, n + 1):
                    _require(st.ct("D", i) + st.ct("U", i) == i, f"ct(D) + ct(U) != i on {s}")

    def petrov_labels() -> None:
        _require(not petrov_check(label_stats("D" * 16)).passed, "D^16 passes")
        _require(petrov_check(label_stats("DUDU" * 4)).passed, "(DUDU)^4 fails")

    def sampler_roundtrip() -> None:
        for k in range(20):
            pair, _ = sample_regular(2048, replicate_rng(seed, 200 + k))
            _require(project(reconstruct(pair)) == pair, f"draw {k} does not round trip")

    def regular_is_regular() -> None:
        pair, _ = sample_regular(2048, replicate_rng(seed, 300))
        _require(is_regular(pair), "the sampled pair is not regular")

    def grid_marginals() -> None:
        rng = replicate_rng(seed, 400)
        perm = rng.permutation(97) + 1
        cdf = grid_cdf(perm, 8)
        for a in range(9):
            _require(cdf.cdf_fraction(a, 8) == Fraction(a, 8), f"column marginal at {a}/8")
            _require(cdf.cdf_fraction(8, a) == Fraction(a, 8), f"row marginal at {a}/8")

    def mu_z_strips() -> None:
        rng = replicate_rng(seed, 500)
        for _ in range(20):
            z = float(rng.random())
            a, b = sorted(rng.random(2))
            _require(abs(mu_z_rect(z, (a, b, 0.0, 1.0)) - (b - a)) < 1e-12, f"column strip at z={z}")
            _require(abs(mu_z_rect(z, (0.0, 1.0, a, b)) - (b - a)) < 1e-12, f"row strip at z={z}")

    def limit_p_sums() -> None:
        import itertools as it

        for size in (3, 5):
            total = sum(limit_p(pi) for pi in it.permutations(range(1, size + 1)))
            _require(total == 1, f"size {size} sums to {total}")
        for size in (3, 5):
            for pi in it.permutations(range(1, size + 1)):
                _require(e_counts(pi) == e_counts_brute(pi), f"counts differ on {pi}")

    def window_map() -> None:
        for p in enumerate_square(6):
            n = len(p)
            for h in (1, 2):
                for i in range(1 + h, n - h + 1):
                    tag, d_set = classify_phi(p, i, h)
                    if tag is None:
                        continue
                    if tag in (1, 4) and not separating_line_exists(p, i, h):
                        continue
                    _require(build_psi(tag, d_set, h) == restrict(p, i, h), f"{p} at i={i}, h={h}")

    def path_invariants() -> None:
        # each replicate checks the identities on its own draw; the anchor
        # 0.65n lies inside the window (0.632n, 0.661n]
        for k in range(2):
            replicate_path_values(50_000, 32_500, (0.5, 1.0), seed, 600 + k)

    return [
        ("counts 3..7 match the closed formula", counts),
        ("reconstruction inverts projection on squares of size 6", roundtrip),
        ("projection is injective on squares of size 6", injectivity),
        ("label statistic identities", label_identities),
        ("Petrov screen separates flat from alternating", petrov_labels),
        ("sampled regular pairs round trip at n=2048", sampler_roundtrip),
        ("sampled pairs pass their own regularity check", regular_is_regular),
        ("grid CDF has exact uniform marginals", grid_marginals),
        ("rectangle permuton has uniform marginals", mu_z_strips),
        ("window probabilities sum to one; dual counts agree", limit_p_sums),
        ("window classifier composes to restriction on squares of size 6", window_map),
        ("path rotation identities hold on conditioned samples", path_invariants),
    ]


def cmd_verify(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    failures = 0
    lines = []
    results = {}
    for name, check in _verify_checks(seed):
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - report and continue
            failures += 1
            lines.append(f"[FAIL] {name}: {exc}")
            results[name] = False
        else:
            lines.append(f"[ok] {name}")
            results[name] = True
    summary = "all checks passed" if failures == 0 else f"{failures} check(s) failed"
    if args.format == "plain":
        _emit((line + "\n" for line in lines + [summary]), args)
    else:
        body = {"results": results, "passed": failures == 0}
        _emit(_report(_config(args, seed=seed), body), args)
    return 0 if failures == 0 else 1


# ------------------------------------------------------------------ main


def _add_seed(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--seed", type=int, default=None, help="master seed (default: env SQUAREPERM_SEED or 0)")


def _add_common(
    sp: argparse.ArgumentParser,
    formats: tuple[str, ...] = ("json", "plain"),
    default_format: str = "json",
) -> None:
    sp.add_argument("--threads", type=int, default=None, help="replicate parallelism (default: env SQUAREPERM_THREADS or 1)")
    sp.add_argument("--output", type=str, default=None, help="write the payload to a file instead of stdout")
    sp.add_argument("--format", choices=formats, default=default_format, help=f"payload format (default {default_format})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squareperm",
        description="Square permutations: encoding, sampling, and limit statistics.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sample", help="sample square permutations")
    sp.add_argument("--size", type=int, required=True)
    sp.add_argument("--count", type=int, default=1)
    _add_seed(sp)
    _add_common(sp)
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("enumerate", help="count square permutations two ways")
    sp.add_argument("--size", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("encode", help="project a square permutation to its anchored pair")
    sp.add_argument("--perm", type=str, required=True, help="e.g. '2 4 1 3' or '2413'")
    _add_common(sp)
    sp.set_defaults(func=cmd_encode)

    sp = sub.add_parser("decode", help="reconstruct a permutation from an anchored pair")
    sp.add_argument("--x", type=str, required=True, help="column labels, e.g. DUDD")
    sp.add_argument("--y", type=str, required=True, help="row labels, e.g. LLRL")
    sp.add_argument("--z0", type=int, required=True, help="anchor column")
    _add_common(sp)
    sp.set_defaults(func=cmd_decode)

    sp = sub.add_parser(
        "permuton-distance",
        help="grid rectangle distance between samples and their limit measure; CSV: n,sample_id,z0_over_n,d_grid",
    )
    sp.add_argument("--size", type=int, required=True)
    sp.add_argument("--grid", type=int, default=64)
    sp.add_argument("--samples", type=int, default=20)
    _add_seed(sp)
    _add_common(sp, formats=("csv", "json"), default_format="csv")
    sp.set_defaults(func=cmd_permuton_distance)

    sp = sub.add_parser("pattern-limit", help="Monte Carlo pattern probability of the rectangle permuton")
    sp.add_argument("--pattern", type=str, required=True)
    sp.add_argument("--z", type=float, required=True)
    sp.add_argument("--trials", type=int, default=10_000)
    _add_seed(sp)
    _add_common(sp, formats=("json",))
    sp.set_defaults(func=cmd_pattern_limit)

    sp = sub.add_parser("fluctuations", help="endpoint moments of the three side paths")
    sp.add_argument("--size", type=int, required=True)
    sp.add_argument("--anchor-fraction", type=float, default=0.7)
    sp.add_argument("--replicates", type=int, default=400)
    sp.add_argument("--times", type=str, default="0.25,0.5,0.75,1.0")
    _add_seed(sp)
    _add_common(sp, formats=("json",))
    sp.set_defaults(func=cmd_fluctuations)

    sp = sub.add_parser("local-stats", help="window pattern frequencies against their limits")
    sp.add_argument("--size", type=int, required=True)
    sp.add_argument("--radius", type=int, default=1)
    sp.add_argument("--roots", type=str, default="all", help="'all' or a Monte Carlo root count")
    sp.add_argument("--count", type=int, default=1, help="permutations to average over")
    _add_seed(sp)
    _add_common(sp, formats=("json",))
    sp.set_defaults(func=cmd_local_stats)

    sp = sub.add_parser("pattern-stats", help="pattern proportions over sampled squares")
    sp.add_argument("--size", type=int, required=True)
    sp.add_argument("--count", type=int, default=200)
    sp.add_argument("--pattern", type=str, default="12")
    sp.add_argument("--consecutive", action="store_true", help="consecutive occurrences instead of classical")
    sp.add_argument(
        "--samples", type=int, default=None,
        help="estimate classical proportions from N uniform position subsets per permutation; "
        "per_sample entries become [estimate, standard error]",
    )
    _add_seed(sp)
    _add_common(sp)
    sp.set_defaults(func=cmd_pattern_stats)

    sp = sub.add_parser("verify", help="run the invariant self-checks")
    _add_seed(sp)
    _add_common(sp, formats=("plain", "json"), default_format="plain")
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # an unwritable --output fails here, before the subcommand's work
        with nullcontext() if args.output is None else _opened(args.output) as write:
            if write is not None:
                args.output = write
            return args.func(args)
    except (
        ValueError,
        IndexError,
        MatchingFailure,
        SamplingBudgetExceeded,
        AssertionError,
        RuntimeError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
