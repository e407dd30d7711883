"""Self-test of the benchmark's output checks.

Each check must accept a real phase-amp output and reject a copy of it
that was deliberately perturbed. Run from anywhere:

    python3 bench/selftest.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import os
import re
import shutil
import sys
from pathlib import Path

import checks
from checks import CheckError

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = Path("bench") / "scratch" / "selftest"


def run_cli(cli, argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    if status != 0:
        raise RuntimeError(f"phase-amp {' '.join(argv)} exited {status}")
    return out.getvalue()


def run_figures(cli, argv: list[str]) -> tuple[str, dict[str, str]]:
    out_dir = SCRATCH / checks.flag(argv, "--experiment")
    stdout = run_cli(cli, argv + ["--out", str(out_dir)])
    files = {p.name: p.read_text() for p in sorted(out_dir.iterdir())}
    return stdout, files


def perturb_levels(counts: list[int], k: int, deltas: list[int]) -> list[int]:
    out = list(counts)
    for i, d in enumerate(deltas):
        out[k + i] += d
    return out


def cases(cli):
    """(name, accept, reject): accept must pass, reject must raise CheckError."""
    checker = checks.Checker()

    def verify(argv, doc_or_text, files=None):
        text = doc_or_text if isinstance(doc_or_text, str) else json.dumps(doc_or_text)
        return lambda: checker.verify(argv, text, files or {})

    def edited(doc, edit):
        bad = copy.deepcopy(doc)
        edit(bad)
        return bad

    amp = ["amplify", "--graph", "grid:3x3", "--successes", "20", "--tail-at", "3pi/4"]
    amp_out = run_cli(cli, amp)
    amp_doc = json.loads(amp_out)
    yield (
        "strict JSON refuses NaN",
        verify(amp, amp_out),
        verify(amp, re.sub(r'"probability": [^,]+', '"probability": NaN', amp_out, count=1)),
    )

    def scale_probability(d):
        d["probability"] *= 1 + 1e-8

    yield "run probability matches the log-space closed form", verify(amp, amp_doc), \
        verify(amp, edited(amp_doc, scale_probability))

    def swap_weights(d):
        d["weights"][5], d["weights"][6] = d["weights"][6], d["weights"][5]

    yield "level weights match the closed form", verify(amp, amp_doc), \
        verify(amp, edited(amp_doc, swap_weights))

    sample = ["amplify", "--graph", "grid:3x3", "--successes", "5",
              "--sample", "2000", "--seed", "1"]
    sample_doc = json.loads(run_cli(cli, sample))

    def zero_weight_sample(d):
        d["samples"][0] = (1 << 9) - 1  # all ones: cut 0, weight 0 after a success

    def skewed_samples(d):
        d["samples"] = [d["samples"][0]] * len(d["samples"])

    yield "samples lie at levels of positive weight", verify(sample, sample_doc), \
        verify(sample, edited(sample_doc, zero_weight_sample))
    yield "sample frequencies pass the chi-square test", verify(sample, sample_doc), \
        verify(sample, edited(sample_doc, skewed_samples))

    hist = ["hist", "--graph", "grid:3x3"]
    hist_doc = json.loads(run_cli(cli, hist))
    counts = [lv["count"] for lv in hist_doc["levels"]]
    n_edges = len(counts) - 1

    def identities(c):
        return lambda: checks.check_histogram_identities(c, 9, n_edges, "maxcut")

    yield "counts sum to 2^n - 1", identities(counts), \
        identities(perturb_levels(counts, 0, [2]))
    yield "sum of k * count is |E| 2^(n-1)", identities(counts), \
        identities(perturb_levels(counts, 5, [2, -2]))
    yield "MaxCut levels are symmetric under complement", identities(counts), \
        identities(perturb_levels(counts, 5, [1, -2, 1]))

    covered = ["hist", "--graph", "grid:3x3", "--objective", "covered-edges"]
    covered_counts = [lv["count"] for lv in json.loads(run_cli(cli, covered))["levels"]]

    def covered_identities(c):
        return lambda: checks.check_histogram_identities(c, 9, n_edges, "covered-edges")

    yield "sum of k * count is 3 |E| 2^(n-2) for covered edges", \
        covered_identities(covered_counts), \
        covered_identities(perturb_levels(covered_counts, 5, [1, -1]))

    def smear(d):
        for i, delta in enumerate((2, -4, 2)):
            d["levels"][5 + i]["count"] += delta

    # The smear keeps every identity, so only the enumeration can catch it.
    smeared = edited(hist_doc, smear)
    yield "histogram matches the plain enumeration", \
        identities([lv["count"] for lv in smeared["levels"]]), verify(hist, smeared)

    line = [2 * math.comb(9, k) - (k == 0) for k in range(10)]
    yield "line:n MaxCut matches 2 C(n-1, k)", \
        lambda: checks.require(line == checks.line_maxcut_counts(10), "formula"), \
        lambda: checks.require(
            perturb_levels(line, 3, [2, -4, 2]) == checks.line_maxcut_counts(10), "formula"
        )

    argv = ["figures", "--experiment", "custom", "--graphs", "line:6,grid:3x3",
            "--m-max", "40", "--format", "csv,json,svg"]
    stdout, files = run_figures(cli, argv)
    traj = json.loads(files["custom_line_6.json"])
    rows = [r["p_optimal_conditional"] for r in traj["records"]]

    def scale_p_sequence(d):
        d["records"][10]["P_sequence"] *= 1 + 1e-8

    yield "P_sequence matches the closed form", \
        verify(argv, stdout, files), \
        verify(argv, stdout, {**files, "custom_line_6.json":
                              json.dumps(edited(traj, scale_p_sequence))})
    yield "p_optimal_conditional is nondecreasing", \
        lambda: checks.check_nondecreasing(rows, "p_optimal_conditional"), \
        lambda: checks.check_nondecreasing(rows[:5] + [rows[4] * 0.99] + rows[6:],
                                           "p_optimal_conditional")
    svg = files["custom.svg"]
    yield "SVG parses", lambda: checks.check_svg(svg), lambda: checks.check_svg(svg[:-40])
    yield "reported files are the files written", verify(argv, stdout, files), \
        verify(argv, stdout, {k: v for k, v in files.items() if k != "custom.svg"})

    oracle = ["verify-oracle", "--sets", "3", "--max-qubits", "3", "--max-seq", "3"]
    oracle_doc = json.loads(run_cli(cli, oracle))

    def worsen_oracle(d):
        d["max_probability_deviation"] = 2e-10

    yield "oracle deviations stay within 1e-10", verify(oracle, oracle_doc), \
        verify(oracle, edited(oracle_doc, worsen_oracle))

    uniform = ["uniform-asymptotics", "--m", "30", "--theta", "3pi/4"]
    uniform_doc = json.loads(run_cli(cli, uniform))

    def off_by_one(d):
        num, den = d["run_probability_rational"].split("/")
        d["run_probability_rational"] = f"{int(num) + 1}/{den}"

    yield "uniform run probability is C(2m, m)/4^m", verify(uniform, uniform_doc), \
        verify(uniform, edited(uniform_doc, off_by_one))

    twopeak = ["twopeak", "--q-u", "1/8", "--a-l", "1/4", "--a-u", "7/4",
               "--measurements", "3", "--target-ratio", "16"]
    twopeak_doc = json.loads(run_cli(cli, twopeak))

    def wrong_ratio(d):
        num, den = d["ratio"]["exact"].split("/")
        d["ratio"]["exact"] = f"{int(num) + 1}/{den}"

    yield "two-peak rationals are exact", verify(twopeak, twopeak_doc), \
        verify(twopeak, edited(twopeak_doc, wrong_ratio))

    bounds = ["bounds", "--p-run", "0.25", "--m", "3", "--theta-ref", "2pi/3", "--p01", "0.2"]
    bounds_doc = json.loads(run_cli(cli, bounds))

    def widen(d):
        d["tail_lower_bound"] -= 0.01

    yield "tail bounds match their formula", verify(bounds, bounds_doc), \
        verify(bounds, edited(bounds_doc, widen))

    table = ["grid-table", "--successes", "10"]
    table_doc = json.loads(run_cli(cli, table))

    def scale_run(d):
        d["run_probability"] *= 1 + 1e-8

    yield "grid table matches the closed form", verify(table, table_doc), \
        verify(table, edited(table_doc, scale_run))

    # Q(1, x) = exp(-x) and Q(1/2, x) = erfc(sqrt(x)), on both evaluation branches.
    def gamma_ok():
        for a, x, want in ((1.0, 0.5, math.exp(-0.5)), (1.0, 7.0, math.exp(-7.0)),
                           (0.5, 0.3, math.erfc(math.sqrt(0.3))),
                           (0.5, 9.0, math.erfc(3.0))):
            checks.close(checks._upper_gamma_q(a, x), want, f"Q({a}, {x})", rel=1e-10)

    yield "chi-square tail matches closed forms", gamma_ok, \
        lambda: checks.close(checks._upper_gamma_q(1.0, 7.0), math.exp(-7.5), "Q(1, 7)")


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import phaseamp.cli as cli

    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    failures = 0
    try:
        for name, accept, reject in cases(cli):
            problem = None
            try:
                accept()
            except CheckError as exc:
                problem = f"rejected the real output: {exc}"
            if problem is None:
                try:
                    reject()
                    problem = "accepted the perturbed output"
                except CheckError:
                    pass
            failures += problem is not None
            print(f"{'FAIL' if problem else 'ok  '}  {name}" + (f": {problem}" if problem else ""))
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{failures} check(s) failed the self-test" if failures else "all checks pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
