"""Independent references and output checks for the benchmark.

Nothing here imports phaseamp. Histograms of graphs with at most 16
vertices come from a plain-Python pass over every assignment; larger ones
must satisfy identities that every histogram obeys (and, for ``line:n``
MaxCut, a closed formula). Run probabilities and level weights come from the
closed form

    p(q, m) = sum_k g_k (1 - cos t_k)^q (1 + cos t_k)^(m - q) / (2^m N)

evaluated in log space, so it stays finite for any m.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

BRUTE_FORCE_MAX_VERTICES = 16
REL_TOL = 1e-9
ORACLE_TOL = 1e-10
# Relative slack for "nondecreasing": float rounding once the weight is ~1.
MONOTONE_SLACK = 1e-12
CHI_SQUARE_MIN_P = 1e-6
TRAJECTORY_HEADER = "m,p_individual,P_sequence,p_optimal_conditional"
SVG_TAG = "{http://www.w3.org/2000/svg}svg"


class CheckError(Exception):
    """An output of the program disagrees with its reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def close(actual, expected: float, what: str, rel: float = REL_TOL) -> None:
    """``actual`` is a finite number within ``rel`` of ``expected``."""
    require(
        isinstance(actual, (int, float)) and not isinstance(actual, bool)
        and math.isfinite(actual),
        f"{what}: {actual!r} is not a finite number",
    )
    require(
        abs(actual - expected) <= rel * abs(expected) + 1e-300,
        f"{what}: {actual!r} differs from the reference {expected!r}",
    )


def flag(argv: list[str], name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def parse_angle(text: str) -> float:
    """The angle spellings the workloads use: 'pi', 'pi/2', '3pi/4', or radians."""
    match = re.fullmatch(r"(\d*)pi(?:/(\d+))?", text)
    if match is None:
        return float(text)
    return int(match.group(1) or 1) * math.pi / int(match.group(2) or 1)


# ---------------------------------------------------------------------------
# Graphs and histograms


def graph_from_spec(spec: str) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edges of 'line:Q', 'grid:RxC', 'starring:Q' or a graph file."""
    kind, _, arg = spec.partition(":")
    if kind == "line":
        q = int(arg)
        return q, [(i, i + 1) for i in range(q - 1)]
    if kind == "grid":
        rows, cols = (int(part) for part in arg.split("x"))
        edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
        edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
        return rows * cols, edges
    if kind == "starring":
        q = int(arg)
        rim = [(i, i + 1) for i in range(1, q - 1)] + [(1, q - 1)]
        return q, [(0, i) for i in range(1, q)] + rim
    header, *lines = Path(spec).read_text().split("\n")
    _, n, _ = header.split()
    return int(n), [tuple(int(v) for v in line.split()) for line in lines if line]


def assignment_level(edges, objective: str, x: int) -> int:
    if objective == "maxcut":
        return sum(((x >> u) ^ (x >> v)) & 1 for u, v in edges)
    return sum(((x >> u) | (x >> v)) & 1 for u, v in edges)


def enumerate_counts(n: int, edges, objective: str) -> list[int]:
    """Assignments per level over every nonzero assignment, in Gray-code order.

    Consecutive Gray codes differ in one vertex, so each step updates the
    objective by that vertex's edges only.
    """
    if n > BRUTE_FORCE_MAX_VERTICES:
        raise ValueError(f"plain enumeration is for at most {BRUTE_FORCE_MAX_VERTICES} vertices")
    neighbours: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    cut = objective == "maxcut"
    counts = [0] * (len(edges) + 1)
    x = value = 0
    for i in range(1, 1 << n):
        v = (i & -i).bit_length() - 1
        side = (x >> v) & 1
        for u in neighbours[v]:
            other = (x >> u) & 1
            if cut:
                value += 1 if other == side else -1
            elif not other:
                value += -1 if side else 1
        x ^= 1 << v
        counts[value] += 1
    return counts


def line_maxcut_counts(n: int) -> list[int]:
    """``line:n`` MaxCut: 2 C(n-1, k) assignments cut k edges, less all-zeros at k = 0."""
    return [2 * math.comb(n - 1, k) - (k == 0) for k in range(n)]


def check_histogram_identities(counts: list[int], n: int, n_edges: int, objective: str) -> None:
    require(len(counts) == n_edges + 1, f"{len(counts)} levels for {n_edges} edges")
    require(min(counts) >= 0, "negative count")
    require(sum(counts) == (1 << n) - 1, f"counts sum to {sum(counts)}, not 2^{n} - 1")
    # Each edge is cut by half of all assignments and covered by three quarters.
    first = n_edges << (n - 1) if objective == "maxcut" else (3 * n_edges) << (n - 2)
    require(
        sum(k * c for k, c in enumerate(counts)) == first,
        f"sum of k * count is not {first}",
    )
    if objective == "maxcut":
        # x and its complement cut the same edges; all-zeros is the one left out.
        require(
            all((c + (k == 0)) % 2 == 0 for k, c in enumerate(counts)),
            "MaxCut levels are not symmetric under complement",
        )


def check_nondecreasing(values, what: str) -> None:
    for i in range(1, len(values)):
        require(
            values[i] >= values[i - 1] * (1.0 - MONOTONE_SLACK),
            f"{what} decreases at row {i}: {values[i - 1]!r} -> {values[i]!r}",
        )


# ---------------------------------------------------------------------------
# Closed form in log space


def _log_terms(counts, n_edges: int, q: int, m: int) -> list[float | None]:
    """log g_k (1 - cos t_k)^q (1 + cos t_k)^r per level, None where it is 0.

    Half-angle forms 1 - cos t = 2 sin^2(t/2), 1 + cos t = 2 cos^2(t/2)
    avoid the cancellation of 1 - cos t near t = 0.
    """
    r = m - q
    out: list[float | None] = []
    for k, g in enumerate(counts):
        half = math.pi * k / (2 * n_edges)
        if g == 0 or (q and k == 0) or (r and k == n_edges):
            out.append(None)
            continue
        term = math.log(g)
        if q:
            term += q * (math.log(2.0) + 2.0 * math.log(math.sin(half)))
        if r:
            term += r * (math.log(2.0) + 2.0 * math.log(math.cos(half)))
        out.append(term)
    return out


def log_run_probability(counts, n_edges: int, q: int, m: int) -> float:
    terms = [t for t in _log_terms(counts, n_edges, q, m) if t is not None]
    top = max(terms)
    total = math.fsum(math.exp(t - top) for t in terms)
    return top + math.log(total) - m * math.log(2.0) - math.log(sum(counts))


def level_weights(counts, n_edges: int, q: int, m: int) -> list[float]:
    terms = _log_terms(counts, n_edges, q, m)
    top = max(t for t in terms if t is not None)
    raw = [0.0 if t is None else math.exp(t - top) for t in terms]
    total = math.fsum(raw)
    return [w / total for w in raw]


def check_trajectory(rows, counts, n_edges: int, what: str) -> None:
    """Rows (m, p_individual, P_sequence, p_optimal_conditional) for m = 0, 1, ..."""
    top = max(k for k, c in enumerate(counts) if c)
    previous = 0.0
    for i, (m, p_individual, p_sequence, p_optimal) in enumerate(rows):
        require(m == i, f"{what}: row {i} has m = {m}")
        log_p = log_run_probability(counts, n_edges, m, m)
        close(p_sequence, math.exp(log_p), f"{what} P_sequence at m={m}")
        close(p_individual, math.exp(log_p - previous), f"{what} p_individual at m={m}")
        close(
            p_optimal,
            level_weights(counts, n_edges, m, m)[top],
            f"{what} p_optimal_conditional at m={m}",
        )
        previous = log_p
    check_nondecreasing([row[3] for row in rows], f"{what} p_optimal_conditional")


# ---------------------------------------------------------------------------
# Formats and statistics


def _reject_constant(name: str):
    raise CheckError(f"non-standard JSON constant {name}")


def strict_json(text: str):
    """Parse JSON, refusing NaN and Infinity."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        raise CheckError(f"invalid JSON: {exc}") from None


def check_svg(text: str) -> None:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise CheckError(f"SVG does not parse: {exc}") from None
    require(root.tag == SVG_TAG, f"root element is {root.tag}, not svg")
    require(
        any(el.get("class") for el in root.iter()),
        "SVG draws no series",
    )


def _upper_gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) (series, or continued fraction)."""
    if x <= 0.0:
        return 1.0
    scale = math.exp(-x + a * math.log(x) - math.lgamma(a))
    if x < a + 1.0:
        term = total = 1.0 / a
        ap = a
        while abs(term) > abs(total) * 1e-16:
            ap += 1.0
            term *= x / ap
            total += term
        return max(0.0, 1.0 - total * scale)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = d if abs(d) > tiny else tiny
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        d = 1.0 / d
        h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return scale * h


def chi_square_p_value(observed: list[int], expected: list[float]) -> float:
    """Upper-tail p-value of Pearson's statistic; bins expecting < 5 are pooled."""
    bins: list[list[float]] = []
    pooled = [0.0, 0.0]
    for o, e in sorted(zip(observed, expected), key=lambda pair: pair[1]):
        pooled[0] += o
        pooled[1] += e
        if pooled[1] >= 5.0:
            bins.append(pooled)
            pooled = [0.0, 0.0]
    if pooled[1] > 0.0 or pooled[0] > 0.0:
        if bins:
            bins[-1][0] += pooled[0]
            bins[-1][1] += pooled[1]
        else:
            bins.append(pooled)
    if len(bins) < 2:
        return 1.0
    stat = sum((o - e) ** 2 / e for o, e in bins)
    return _upper_gamma_q((len(bins) - 1) / 2.0, stat / 2.0)


def check_samples(samples, n: int, edges, objective: str, weights) -> None:
    """Every sample lies in the support at a level of positive weight, and
    the level frequencies fit the weights (chi-square)."""
    require(isinstance(samples, list) and samples, "no samples")
    observed = [0] * len(weights)
    for x in samples:
        require(isinstance(x, int) and 0 < x < (1 << n), f"sample {x!r} is outside the support")
        level = assignment_level(edges, objective, x)
        require(weights[level] > 0.0, f"sample {x} sits at level {level}, which has weight 0")
        observed[level] += 1
    live = [k for k, w in enumerate(weights) if w > 0.0]
    total = math.fsum(weights)
    p = chi_square_p_value(
        [observed[k] for k in live], [len(samples) * weights[k] / total for k in live]
    )
    require(p >= CHI_SQUARE_MIN_P, f"sample level frequencies misfit the weights (p = {p:.3g})")


# ---------------------------------------------------------------------------
# Per-operation checks


def output_digest(stdout: str, files: dict[str, str]) -> str:
    h = hashlib.sha256(stdout.encode())
    for name in sorted(files):
        h.update(b"\0" + name.encode() + b"\0" + files[name].encode())
    return h.hexdigest()


def _spec_from_slug(slug: str) -> str:
    kind, _, rest = slug.partition("_")
    return f"{kind}:{rest}"


def _fraction_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


class Checker:
    """Checks every distinct output of the run once.

    A histogram too large to enumerate here is checked by identities when a
    ``hist`` operation prints it, and then serves as the reference for the
    ``amplify`` operations on the same graph and objective.
    """

    def __init__(self) -> None:
        self._histograms: dict[tuple[str, str], list[int]] = {}
        self._seen: set[tuple] = set()
        self._pending: list = []
        self.errors: list[str] = []
        self.checked = 0

    def add(self, op, stdout: str, files: dict[str, str]) -> None:
        key = (tuple(op.argv), output_digest(stdout, files))
        if key not in self._seen:
            self._seen.add(key)
            self._pending.append((op, stdout, files))

    def end_round(self) -> None:
        """Check the round's new outputs, histograms first."""
        pending = sorted(self._pending, key=lambda item: item[0].argv[0] != "hist")
        self._pending = []
        for op, stdout, files in pending:
            try:
                self.verify(op.argv, stdout, files)
            except (CheckError, KeyError, TypeError, ValueError, OSError) as exc:
                self.errors.append(f"{' '.join(op.argv)[:160]}: {type(exc).__name__}: {exc}")
            self.checked += 1

    def verify(self, argv: list[str], stdout: str, files: dict[str, str]) -> None:
        doc = strict_json(stdout)
        verb = argv[0]
        if verb == "figures":
            self._figures(argv, doc, files)
        else:
            getattr(self, "_" + verb.replace("-", "_"))(argv, doc)

    def counts(self, spec: str, objective: str) -> list[int]:
        key = (spec, objective)
        if key not in self._histograms:
            n, edges = graph_from_spec(spec)
            require(
                n <= BRUTE_FORCE_MAX_VERTICES,
                f"no checked histogram of {spec} {objective} to compare against",
            )
            self._histograms[key] = enumerate_counts(n, edges, objective)
        return self._histograms[key]

    # -- verbs ---------------------------------------------------------------

    def _hist(self, argv, doc) -> None:
        spec, objective = flag(argv, "--graph"), flag(argv, "--objective", "maxcut")
        n, edges = graph_from_spec(spec)
        n_edges = len(edges)
        levels = doc["levels"]
        require([lv["k"] for lv in levels] == list(range(n_edges + 1)), "level labels")
        for lv in levels:
            close(lv["theta"], math.pi * lv["k"] / n_edges, f"theta of level {lv['k']}")
        counts = [lv["count"] for lv in levels]
        require(doc["denominator"] == n_edges and doc["includes_zero"] is False, "header")
        require(doc["support"] == sum(counts), "support is not the sum of the counts")
        check_histogram_identities(counts, n, n_edges, objective)
        if spec.startswith("line:") and objective == "maxcut":
            require(counts == line_maxcut_counts(n), "line MaxCut counts off the formula")
        if n <= BRUTE_FORCE_MAX_VERTICES:
            require(counts == self.counts(spec, objective), "counts differ from enumeration")
        self._histograms[(spec, objective)] = counts

    def _amplify(self, argv, doc) -> None:
        spec, objective = flag(argv, "--graph"), flag(argv, "--objective", "maxcut")
        n, edges = graph_from_spec(spec)
        n_edges = len(edges)
        counts = self.counts(spec, objective)
        sequence = flag(argv, "--sequence") or "1" * int(flag(argv, "--successes"))
        m, q = len(sequence), sequence.count("1")
        require(doc["sequence"] == sequence and doc["m"] == m and doc["q"] == q, "record")
        log_p = log_run_probability(counts, n_edges, q, m)
        close(doc["log_probability"], log_p, "log_probability")
        close(doc["probability"], math.exp(log_p), "probability")
        close(doc["closed_form_probability"], math.exp(log_p), "closed_form_probability")
        weights = level_weights(counts, n_edges, q, m)
        require(len(doc["weights"]) == len(weights), "one weight per level")
        for k, (got, want) in enumerate(zip(doc["weights"], weights)):
            close(got, want, f"weight of level {k}")
            close(doc["thetas"][k], math.pi * k / n_edges, f"theta of level {k}")
        theta = parse_angle(flag(argv, "--tail-at", "pi"))
        tail = math.fsum(w for k, w in enumerate(weights) if math.pi * k / n_edges >= theta - 1e-12)
        close(doc["tail"]["theta"], theta, "tail angle")
        close(doc["tail"]["conditional"], tail, "conditional tail")
        close(doc["tail"]["unconditional"], tail * math.exp(log_p), "unconditional tail")
        if flag(argv, "--sample"):
            require(len(doc["samples"]) == int(flag(argv, "--sample")), "sample count")
            check_samples(doc["samples"], n, edges, objective, doc["weights"])

    def _grid_table(self, argv, doc) -> None:
        spec = flag(argv, "--grid", "grid:4x4")
        m = int(flag(argv, "--successes", "10"))
        require(doc["graph"] == spec and doc["successes"] == m, "header")
        self._grid_table_values(spec, m, doc)

    def _grid_table_values(self, spec: str, m: int, values) -> None:
        counts = self.counts(spec, "maxcut")
        n_edges = len(counts) - 1
        top = max(k for k, c in enumerate(counts) if c)
        initial = counts[top] / sum(counts)
        conditional = level_weights(counts, n_edges, m, m)[top]
        close(values["initial_optimal_probability"], initial, "initial optimal probability")
        close(values["conditional_optimal_probability"], conditional, "conditional optimal")
        close(
            values["run_probability"],
            math.exp(log_run_probability(counts, n_edges, m, m)),
            "run probability",
        )
        close(values["checks_direct"], 1.0 / initial, "checks_direct")
        close(values["checks_amplified"], 1.0 / conditional, "checks_amplified")
        close(values["checks_saved_factor"], conditional / initial, "checks_saved_factor")

    def _verify_oracle(self, argv, doc) -> None:
        sets, max_seq = int(flag(argv, "--sets")), int(flag(argv, "--max-seq"))
        require(doc["cases"] == sets * ((1 << (max_seq + 1)) - 1), "oracle case count")
        for key in ("max_probability_deviation", "max_distribution_deviation"):
            value = doc[key]
            require(
                isinstance(value, float) and 0.0 <= value <= ORACLE_TOL,
                f"{key} = {value!r} exceeds {ORACLE_TOL}",
            )

    def _uniform_asymptotics(self, argv, doc) -> None:
        m = int(flag(argv, "--m"))
        exact = Fraction(math.comb(2 * m, m), 4**m)
        require(
            doc["run_probability_rational"] == _fraction_text(exact),
            f"uniform run probability is not C(2m, m)/4^m at m={m}",
        )
        close(doc["run_probability_exact"], float(exact), "run_probability_exact")
        close(doc["step_success"], (2 * m - 1) / (2 * m), "step_success")
        close(doc["run_probability_estimate"], 1.0 / math.sqrt(math.pi * m), "estimate")
        close(doc["central_binomial_norm"], 1.0 / math.comb(2 * m, m), "central_binomial_norm")
        if flag(argv, "--theta"):
            theta = parse_angle(flag(argv, "--theta"))
            estimate = math.erf(math.sqrt(m) * (math.pi - theta) / 2.0)
            close(doc["gaussian_tail"]["estimate"], estimate, "gaussian tail")

    def _twopeak(self, argv, doc) -> None:
        q_u = Fraction(flag(argv, "--q-u"))
        a_l, a_u = Fraction(flag(argv, "--a-l")), Fraction(flag(argv, "--a-u"))
        steps = int(flag(argv, "--measurements", "1"))
        upper, lower = q_u * a_u**steps, (1 - q_u) * a_l**steps
        expected = {
            "ratio": upper / lower,
            "p_upper": upper / (upper + lower),
            "run_probability": (upper + lower) / 2**steps,
            "run_probability_via_ratio": (upper + lower) / 2**steps,
        }
        for key, value in expected.items():
            require(doc[key]["exact"] == _fraction_text(value), f"{key} is not {value}")
            close(doc[key]["value"], float(value), key)
        if flag(argv, "--target-ratio"):
            target = Fraction(flag(argv, "--target-ratio"))
            needed = math.log2(target * (1 - q_u) / q_u) / math.log2(a_u / a_l)
            close(doc["required_measurements"], needed, "required_measurements")

    def _bounds(self, argv, doc) -> None:
        p_run, m = float(flag(argv, "--p-run")), int(flag(argv, "--m"))
        theta = parse_angle(flag(argv, "--theta-ref"))
        # Levels at or above theta gain at least (1 - cos theta) per step, the rest at most.
        gain = (1.0 - math.cos(theta)) ** m
        scaled = 2.0**m * p_run
        lower, upper = doc["tail_lower_bound"], doc["tail_upper_bound"]
        close(doc["theta_ref"], theta, "theta_ref")
        close(lower, max(0.0, (scaled - gain) / (2.0**m - gain)), "tail lower bound")
        close(upper, min(1.0, scaled / gain), "tail upper bound")
        require(0.0 <= lower <= upper <= 1.0, "tail bounds out of order")
        if flag(argv, "--p01"):
            p01 = float(flag(argv, "--p01"))
            half = parse_angle(flag(argv, "--half-width", "pi/4"))
            band = max(0.0, (4.0 * p01 - math.cos(half) ** 2) / math.sin(half) ** 2)
            close(doc["band"]["lower_bound"], band, "band lower bound")

    # -- figures -------------------------------------------------------------

    def _figures(self, argv, doc, files) -> None:
        written = sorted(Path(p).name for p in doc["written"])
        require(written == sorted(files), "reported files differ from the files written")
        if flag(argv, "--experiment") == "all":
            require(len(files) == 41, f"{len(files)} files, not 41")
        successes = int(flag(argv, "--successes", "10"))
        for name, text in sorted(files.items()):
            what = f"{name}"
            if name.endswith(".svg"):
                check_svg(text)
            elif name.endswith(".json"):
                self._figure_json(what, strict_json(text))
            elif name.endswith(".csv"):
                self._figure_csv(what, text, successes)
            else:
                raise CheckError(f"unexpected file {name}")

    def _figure_json(self, what: str, doc) -> None:
        spec = doc["graph"]
        if "records" in doc:
            counts = self.counts(spec, "maxcut")
            rows = [
                (r["m"], r["p_individual"], r["P_sequence"], r["p_optimal_conditional"])
                for r in doc["records"]
            ]
            check_trajectory(rows, counts, len(counts) - 1, what)
        elif "scale" in doc:
            self._scaled_weights(what, spec, doc["successes"], [
                (lv["theta"], lv["scaled_weight"]) for lv in doc["levels"]
            ])
        elif "levels" in doc:
            counts = [lv["count"] for lv in doc["levels"]]
            require(counts == self.counts(spec, "maxcut"), f"{what}: counts differ")
        else:
            self._grid_table_values(spec, doc["successes"], doc)

    def _figure_csv(self, what: str, text: str, successes: int) -> None:
        header, *lines = text.rstrip("\n").split("\n")
        rows = [line.split(",") for line in lines]
        stem = Path(what).stem
        if header == TRAJECTORY_HEADER:
            counts = self.counts(_spec_from_slug(stem.split("_", 1)[1]), "maxcut")
            parsed = [(int(r[0]), *(float(v) for v in r[1:])) for r in rows]
            check_trajectory(parsed, counts, len(counts) - 1, what)
        elif header == "theta,count":
            counts = self.counts(_spec_from_slug(stem.split("_", 1)[1]), "maxcut")
            require([int(r[1]) for r in rows] == counts, f"{what}: counts differ")
        elif header == "theta,scaled_weight":
            pairs = [(float(t), float(w)) for t, w in rows]
            self._scaled_weights(what, "grid:4x4", successes, pairs)
        elif header == "key,value":
            values = {k: v for k, v in rows}
            spec = values.pop("graph")
            m = int(values.pop("successes"))
            self._grid_table_values(spec, m, {k: float(v) for k, v in values.items()})
        else:
            raise CheckError(f"{what}: unknown header {header!r}")

    def _scaled_weights(self, what: str, spec: str, m: int, pairs) -> None:
        counts = self.counts(spec, "maxcut")
        n_edges = len(counts) - 1
        weights = level_weights(counts, n_edges, m, m)
        require(len(pairs) == len(weights), f"{what}: level count")
        for k, (theta, scaled) in enumerate(pairs):
            close(theta, math.pi * k / n_edges, f"{what} theta {k}")
            close(scaled, sum(counts) * weights[k], f"{what} scaled weight {k}")
