"""Fast self-test of the benchmark's wiring at small sizes.

    python3 perfbench/selftest.py

Runs each workload at small M, untraced and traced twice, and checks
that every output check passes, that host-speed samples bracket every
timed operation, that every metric named in BENCHMARK.json is emitted
with its unit, that the traced counts repeat exactly between the two
traced runs, that the deform CSVs are
byte-identical between runs, that the small sizes take the dense (sweep,
M = 64), circulant (ladder, constant profile) and iterative (deform,
M = 300) coercivity paths, and that tracing restores every wrapped
attribute.  Exits 0 when all hold.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run

SMALL_SECONDS = 0.0  # one pass per loop


def check(cond, what, failures):
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        failures.append(what)


def checks_reject_wrong_outputs(failures):
    """Each workload's check fails an output that is off by a little."""
    import workloads

    def first_pass(name):
        wl = workloads.make(name, 0, run.OUT_DIR, small=True)
        ops = []
        return wl, wl.run_pass(ops, lambda: None), len(ops)

    wl, gamma_c, n = first_pass("sweep-ref")
    check(
        all(wl.check(gamma_c, n)) and not any(wl.check(gamma_c + wl.p["dgamma"], n)),
        "sweep-ref check rejects gamma_c one grid step too high",
        failures,
    )
    wl, reports, n = first_pass("cmin-ladder")
    bad = [dataclasses.replace(reports[0], c_min=reports[0].c_min * (1 + 1e-6))] + reports[1:]
    check(
        all(wl.check(reports, n)) and wl.check(bad, n) == [False] + [True] * (n - 1),
        "cmin-ladder check rejects a c_min off by 1e-6",
        failures,
    )
    wl, results, n = first_pass("deform-cli")
    path = results[0][0]
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("0,0,0,0,0,0\n")  # one row too many
    fresh = workloads.make("deform-cli", 0, run.OUT_DIR, small=True)
    check(not fresh.check(results, n)[0], "deform-cli check rejects a corrupted CSV", failures)


def main():
    if not run.use_program_sources():
        print(f"error: program sources not found under {run.SRC}", file=sys.stderr)
        return 2
    import layertrace

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures = []

    check(
        [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES),
        "BENCHMARK.json workloads match run.py",
        failures,
    )
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(list(e2e) == list(run.E2E_METRICS), "BENCHMARK.json end_to_end matches run.py", failures)
    check(
        layers == {name: unit for name, unit, _, _ in layertrace.LAYER_METRICS},
        "BENCHMARK.json per_layer matches layertrace.LAYER_METRICS",
        failures,
    )

    tracer = layertrace.Tracer()
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in tracer.targets()]
    csv_bytes = {}
    for name in run.WORKLOAD_NAMES:
        result, record = run.measure(name, 0, SMALL_SECONDS, 0, small=True, setups=1)
        check(result["correct"] and result["failed"] == 0, f"{name}: untraced outputs correct", failures)
        check(
            all(len(k) == len(o) + 1 for o, k in zip(record["op_s_measured"], record["kernel_s"])),
            f"{name}: host-speed samples bracket every operation",
            failures,
        )
        got = {k: m["unit"] for k, m in result["metrics"].items()}
        check(got == e2e, f"{name}: every end-to-end metric emitted with its unit", failures)

        traced = []
        for _ in range(2):
            result, _ = run.measure(name, 0, SMALL_SECONDS, 1, small=True, setups=1)
            check(result["correct"], f"{name}: traced outputs correct", failures)
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            check(got == layers, f"{name}: every per-layer metric emitted with its unit", failures)
            traced.append({k: result["metrics"][k]["value"] for k in layertrace.COUNT_METRICS})
            if name == "deform-cli":
                for path in sorted(run.OUT_DIR.glob("deform-*.csv")):
                    csv_bytes.setdefault(path.name, []).append(path.read_bytes())
        check(traced[0] == traced[1], f"{name}: traced counts repeat exactly", failures)

        counts = traced[0]
        if name == "sweep-ref":
            check(
                counts["stability.coercivity_constant.calls"] > 0 and counts["stability.eigsh.calls"] == 0,
                "sweep-ref at M = 64 takes the dense path",
                failures,
            )
        elif name == "cmin-ladder":
            check(
                counts["stability.coercivity_constant.calls"] == 2
                and counts["stability.eigsh.calls"] == 0
                and counts["stability.splu.calls"] == 0,
                "cmin-ladder with the constant profile takes the circulant path",
                failures,
            )
        else:
            check(
                counts["stability.eigsh.calls"] == 2 and counts["experiments.solve_mean_zero.calls"] == 6,
                "deform-cli at M = 300 takes the iterative and sparse-solve paths",
                failures,
            )

    checks_reject_wrong_outputs(failures)
    check(
        len(csv_bytes) == 2 and all(len(set(v)) == 1 for v in csv_bytes.values()),
        "deform CSVs byte-identical between runs",
        failures,
    )
    check(
        all(vars(owner)[attr] is fn for owner, attr, fn in originals),
        "tracing restored every wrapped attribute",
        failures,
    )
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
