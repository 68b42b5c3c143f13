"""Operations per workload and the exact references their results must meet.

Pure functions over the JSON reports that ``child.py`` prints; nothing here
imports the library, so ``run.py`` stays a light parent process.

A child report's ``ops`` maps each operation of the workload to
``{"error": str | None, "result": dict | None}``. The first child of a run
also carries ``references``: per operation, the values an exact,
seed-independent check needs. Every child of a run draws the same inputs,
so every child must reproduce the first child's results exactly, which
makes the reference verdict hold for all of them and compares each traced
re-drive with the library's own runner.
"""

from __future__ import annotations

from fractions import Fraction

# An operation is one plan or bucket build, one sampled estimate, or one
# exact spec.
EXACT_SPECS = 3
OPS = {
    "mc_g2_n16": ("plan", "estimate"),
    "cycles_g3_n10": ("plan", "estimate"),
    "exact_g2_n4": ("buckets",) + tuple(f"spec{i}" for i in range(EXACT_SPECS)),
    "plan_g2_n20": ("plan", "estimate"),
}

# Sampled fixed-point means must lie this many standard errors from the exact
# finite-n value; wide, because the check is for gross sampler faults and
# must not fail by chance on any seed.
Z_BAND = 6.0


def within_z_band(mean: float, stderr: float, exact: str, z: float = Z_BAND) -> bool:
    return abs(mean - float(Fraction(exact))) <= z * stderr


def enumeration_matches(value: str, points: int, visitor_sum: int) -> bool:
    """exact_expectation times the point count equals the enumerated sum."""
    return Fraction(value) * points == visitor_sum


def reference_problem(ref: dict) -> str | None:
    if "exact" in ref and not within_z_band(ref["mean"], ref["stderr"], ref["exact"]):
        return (
            f"sampled mean {ref['mean']} +- {ref['stderr']} is outside "
            f"{Z_BAND} standard errors of the exact {ref['exact']}"
        )
    if "factorization_identity" in ref and ref["factorization_identity"] is not True:
        return "factorization_identity_holds is false"
    return None


def result_problem(result: dict, baseline: dict) -> str | None:
    """Differences between a child's result and the first child's result."""
    for key in result.keys() & baseline.keys():
        if result[key] != baseline[key]:
            return f"{key} differs from the first child"
    if "visitor_sum" in result and not enumeration_matches(
        baseline["value"], result["points"], result["visitor_sum"]
    ):
        return (
            f"enumerated sum {result['visitor_sum']} is not "
            f"{baseline['value']} x {result['points']}"
        )
    return None


def evaluate(workload: str, reports: list) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every child of a run.

    ``reports`` holds one entry per child in launch order; ``None`` stands for
    a child that printed no report, and all of its operations fail.
    """
    ops = OPS[workload]
    first = reports[0] if reports else None
    baselines: dict[str, dict | None] = {op: None for op in ops}
    bad_refs: dict[str, str] = {}
    if first is None or first.get("references") is None:
        bad_refs = {op: "the first child computed no references" for op in ops}
    else:
        for op in ops:
            baselines[op] = first["ops"].get(op, {}).get("result")
            ref = first["references"].get(op)
            problem = reference_problem(ref) if ref is not None else None
            if problem:
                bad_refs[op] = problem
    failed = 0
    problems: list[str] = []
    for index, report in enumerate(reports):
        for op in ops:
            if report is None:
                problem = "no report"
            else:
                entry = report["ops"].get(op) or {"error": "missing", "result": None}
                problem = entry["error"] or bad_refs.get(op)
                if problem is None:
                    if baselines[op] is None or entry["result"] is None:
                        problem = "no result to compare"
                    else:
                        problem = result_problem(entry["result"], baselines[op])
            if problem:
                failed += 1
                problems.append(f"child {index} {op}: {problem}")
    return len(ops) * len(reports), failed, problems
