"""Self-test of the benchmark harness.  Run from the repository root:

    python3 -m pytest bench
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

# Encoding this sentence raises a bare ValueError (nn "person" and nns "persons"
# give conflicting person_N opers); it is kept out of the workloads.
CRASH_BLOCK = "\n".join(
    "\t".join(row)
    for row in [
        ["# sent_id = crash"],
        ["# text = The person likes persons."],
        ["1", "The", "the", "DET", "DT", "_", "2", "det", "_", "_"],
        ["2", "person", "person", "NOUN", "NN", "_", "3", "nsubj", "_", "_"],
        ["3", "likes", "like", "VERB", "VBZ", "_", "0", "root", "_", "_"],
        ["4", "persons", "person", "NOUN", "NNS", "_", "3", "obj", "_", "_"],
        ["5", ".", ".", "PUNCT", ".", "_", "3", "punct", "_", "_"],
    ]
)


def test_crash_sentence_is_counted_as_failed_and_the_run_goes_on():
    workload = run.EvalX32(seed=0)
    workload.setup(run.NULL, None)
    first, second = workload.items[:2]
    workload.items = [first, ("people", "crash", CRASH_BLOCK), second]
    workload.expected["crash"] = "person likes persons"

    result = workload.run_pass(run.Tracer(), None)

    assert result.attempted == 3
    assert [source for source, _ in result.times] == [first[1], second[1]]
    [(item, stage, reason)] = result.failures
    assert (item, stage) == ("crash", "encoder")
    assert reason.startswith("ValueError: conflicting definitions for oper person_N")


def test_tracer_self_time_excludes_children_and_names_the_failed_stage():
    tr = run.Tracer()
    tr.begin_item("a")
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    tr.spans[0][4:] = [0.0, 0.010]
    tr.spans[1][4:] = [0.002, 0.006]
    busy = tr.self_ms()
    assert abs(busy["outer"] - 6.0) < 1e-9 and abs(busy["inner"] - 4.0) < 1e-9
    assert tr.spans[1][1] == 0 and tr.spans[1][2] == "a"

    tr.begin_item("b")
    try:
        with tr.span("outer"):
            with tr.span("inner"):
                raise ValueError("boom")
    except ValueError:
        pass
    assert tr.failed_stage == "inner"


def test_benchmark_json_names_the_printed_metrics_and_workloads():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
