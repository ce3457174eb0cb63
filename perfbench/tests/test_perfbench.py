"""Tests of the benchmark itself: generator, output checks and traced replay.

Run from the repository root with `python -m pytest perfbench/tests`.
"""
import json
import os

import numpy as np
import pytest

import checks
import gen
import replay
import run
from stagetrees import ModelDocument, read_csv

TITANIC = os.path.join(run.SRC, "stagetrees", "data", "titanic.csv")

LEARN = run.Workload(("learn", "--count-column", "count", "--algo", "hc"), (2, 3, 2, 2), 600, True, 1)
REFINE = run.Workload(("refine", "--algo", "bhc"), (2, 2, 3, 2), 3000, False, 1)


def _job(spec, tmp_path, seed=5):
    inputs, _ = run.make_inputs(spec, seed, str(tmp_path))
    inp = inputs[0]
    code, stdout, stderr, _ = run.run_cli(inp.argv)
    assert code == 0, stderr
    return inp, stdout


def _rewrite(path, edit):
    with open(path) as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


# ---------------------------------------------------------------------------
# generator

def test_generator_is_deterministic_per_seed(tmp_path):
    a = gen.generate([3, 0], (2, 3, 2, 2), 1000, rows=True)
    b = gen.generate([3, 0], (2, 3, 2, 2), 1000, rows=True)
    c = gen.generate([4, 0], (2, 3, 2, 2), 1000, rows=True)
    assert np.array_equal(a.rows, b.rows) and a.network.parents == b.network.parents
    assert not np.array_equal(a.rows, c.rows)
    files = []
    for i, sample in enumerate((a, b)):
        rows_path, counts_path = tmp_path / f"r{i}.csv", tmp_path / f"c{i}.csv"
        gen.write_rows_csv(rows_path, sample.network.names, sample.rows)
        gen.write_count_csv(counts_path, sample.network.names, sample.network.levels, sample.counts)
        files.append((rows_path.read_bytes(), counts_path.read_bytes()))
    assert files[0] == files[1]


def test_generator_network_shape():
    sample = gen.generate(11, (3,) * 6, 500, rows=True)
    net = sample.network
    for i, (pa, cpt) in enumerate(zip(net.parents, net.cpts)):
        assert len(pa) == min(i, gen.PARENTS) and all(j < i for j in pa)
        assert cpt.shape == (int(np.prod([net.levels[j] for j in pa])), 3)
        assert np.allclose(cpt.sum(axis=1), 1.0)
    assert sample.counts.sum() == 500 and sample.rows.max() <= 2


def test_count_sampling_matches_row_sampling():
    net = gen.generate(8, (2, 3, 2, 2), 1).network
    probs = gen.cell_probabilities(net)
    assert probs.shape == (24,) and np.isclose(probs.sum(), 1.0)
    rows = gen.sample_rows(np.random.default_rng(0), net, 200_000)
    assert np.abs(gen.cell_counts(rows, net.levels) / 200_000 - probs).max() < 0.005
    again = gen.generate(8, (2, 3, 2, 2), 10_000)
    assert np.array_equal(again.counts, gen.generate(8, (2, 3, 2, 2), 10_000).counts)
    assert again.counts.sum() == 10_000 and again.rows is None


def test_written_csvs_read_back_to_the_generated_counts(tmp_path):
    sample = gen.generate(2, (2, 3, 2), 400, rows=True)
    gen.write_rows_csv(tmp_path / "r.csv", sample.network.names, sample.rows)
    gen.write_count_csv(tmp_path / "c.csv", sample.network.names, sample.network.levels,
                        sample.counts)
    assert checks.check_counts(read_csv(tmp_path / "r.csv"), sample) == []
    counted = read_csv(tmp_path / "c.csv", count_column="count")
    assert np.array_equal(counted.counts, sample.counts)


# ---------------------------------------------------------------------------
# output checks

def test_checks_accept_a_correct_learn_job(tmp_path):
    inp, stdout = _job(LEARN, tmp_path)
    assert checks.check_model(inp.out, stdout, inp.sample) == []
    assert ModelDocument.load(inp.out).trace.steps


def test_check_rejects_a_document_that_does_not_reload(tmp_path):
    inp, stdout = _job(LEARN, tmp_path)
    with open(inp.out, "r+") as fh:
        fh.truncate(40)
    assert any("does not reload" in p for p in checks.check_model(inp.out, stdout, inp.sample))


def test_check_rejects_a_wrong_bic(tmp_path):
    inp, stdout = _job(LEARN, tmp_path)
    printed = json.loads(stdout)
    printed["score"]["bic"] += 0.01
    problems = checks.check_model(inp.out, json.dumps(printed), inp.sample)
    assert any("brute-force" in p for p in problems)

    def wrong_fit(doc):
        doc["fitted"][1][0] = doc["fitted"][1][0][::-1]
    _rewrite(inp.out, wrong_fit)
    assert any("brute-force" in p for p in checks.check_model(inp.out, stdout, inp.sample))


def test_check_rejects_a_trace_that_does_not_descend(tmp_path):
    inp, stdout = _job(LEARN, tmp_path)

    def bump(doc):
        doc["trace"][0]["score_after"] = doc["trace"][0]["score_before"] + 1.0
    _rewrite(inp.out, bump)
    problems = checks.check_model(inp.out, stdout, inp.sample)
    assert any("strictly descend" in p for p in problems)


def test_check_rejects_a_trace_that_ends_elsewhere(tmp_path):
    inp, stdout = _job(LEARN, tmp_path)

    def shift(doc):
        doc["trace"][-1]["score_after"] -= 0.5
    _rewrite(inp.out, shift)
    assert any("trace ends" in p for p in checks.check_model(inp.out, stdout, inp.sample))


def test_check_rejects_a_wrong_edge_label(tmp_path):
    inp, stdout = _job(LEARN, tmp_path)

    def relabel(doc):
        edge = doc["aldag"]["edges"][0]
        edge[2] = "local" if edge[2] != "local" else "total"
    _rewrite(inp.out, relabel)
    assert any("oracle says" in p for p in checks.check_model(inp.out, stdout, inp.sample))


def test_check_rejects_labeled_edges_outside_the_refined_dag(tmp_path):
    inp, stdout = _job(REFINE, tmp_path)
    assert checks.check_model(inp.out, stdout, inp.sample) == []
    printed = json.loads(stdout)
    assert ModelDocument.load(inp.out).aldag.labels
    printed["dag_edges"] = []
    problems = checks.check_model(inp.out, json.dumps(printed), inp.sample)
    assert any("not edges of the refined DAG" in p for p in problems)


def test_check_rejects_wrong_ingested_counts(tmp_path):
    inp, _ = _job(REFINE, tmp_path)
    data = read_csv(inp.argv[2])
    assert checks.check_counts(data, inp.sample) == []
    counts = data.counts.copy()
    counts[0] += 1
    tampered = type(data)(data.space, counts)
    assert checks.check_counts(tampered, inp.sample)


def test_checker_rejects_a_repeat_that_is_not_byte_identical(tmp_path):
    inp, stdout = _job(LEARN, tmp_path)
    check = run.Checker(count_check=False)
    assert check(0, inp, 0, stdout, "") == []
    assert check(0, inp, 0, stdout, "") == []
    with open(inp.out, "a") as fh:
        fh.write(" ")
    assert any("byte-identical" in p for p in check(0, inp, 0, stdout, ""))
    assert check(0, inp, 3, "", "boom") == ["exit code 3: boom"]


# ---------------------------------------------------------------------------
# traced replay

def _replay_matches_cli(argv, out):
    code, stdout, stderr, _ = run.run_cli(argv)
    assert code == 0, stderr
    with open(out, "rb") as fh:
        cli_doc = fh.read()
    tracer = replay.Tracer()
    replay_stdout, facts = replay.replay(argv, tracer, job=0)
    with open(out, "rb") as fh:
        assert fh.read() == cli_doc
    assert replay_stdout == stdout
    root = tracer.spans[0]
    assert root["name"] == "cli.job" and root["parent"] is None
    assert all(s["parent"] == root["id"] and s["job"] == 0 for s in tracer.spans[1:])
    assert all(root["start"] <= s["start"] <= s["end"] <= root["end"] for s in tracer.spans)
    return json.loads(stdout), tracer, facts


@pytest.mark.parametrize("spec", [LEARN, REFINE], ids=["learn", "refine"])
def test_replay_matches_cli_on_a_tiny_input(tmp_path, spec):
    inputs, _ = run.make_inputs(spec, 9, str(tmp_path))
    _, tracer, facts = _replay_matches_cli(inputs[0].argv, inputs[0].out)
    names = [s["name"] for s in tracer.spans]
    if spec is REFINE:
        assert names[1:] == ["io.read_csv", "learning.learn_dag", "conversion.dag_to_tree",
                             "learning.search", "conversion.aldag", "scoring.score",
                             "scoring.fit", "io.save"]
        assert facts["dag_edges"] >= 1
    else:
        assert names[1:] == ["io.read_csv", "core.default_start", "learning.search",
                             "scoring.score", "conversion.aldag", "scoring.fit", "io.save"]


def test_replay_matches_cli_on_enumerated_orders(tmp_path):
    spec = run.Workload(("learn", "--count-column", "count", "--enumerate-orders", "--algo", "bhc",
                         "--fix-last", "x2"), (2, 2, 2, 2), 800, True, 1)
    inputs, _ = run.make_inputs(spec, 4, str(tmp_path))
    _, tracer, facts = _replay_matches_cli(inputs[0].argv, inputs[0].out)
    assert facts["orders"] == 6
    assert "learning.enumerate_orders" in [s["name"] for s in tracer.spans]


def test_reference_bic_matches_the_bn_staged_tree(tmp_path):
    from stagetrees import Dag, Dataset, SampleSpace, dag_to_staged_tree, score
    sample = gen.generate(6, (2, 3, 2, 2), 2000)
    net = sample.network
    space = SampleSpace(tuple((name, tuple(str(v) for v in range(k)))
                              for name, k in zip(net.names, net.levels)))
    dag = Dag(len(net.levels), frozenset((j, i) for i, pa in enumerate(net.parents) for j in pa))
    report = score(dag_to_staged_tree(dag, space), Dataset(space, sample.counts))
    assert checks.reference_bic(sample) == pytest.approx(report.bic, rel=1e-12)


def test_replay_matches_cli_on_titanic(tmp_path):
    out = str(tmp_path / "titanic.json")
    argv = ("learn", "--data", TITANIC, "--count-column", "count", "--algo", "hc", "--out", out)
    printed, _, facts = _replay_matches_cli(argv, out)
    assert round(printed["score"]["bic"], 2) == 10435.02
    assert facts["moves"] > 0


# ---------------------------------------------------------------------------
# runner

def test_benchmark_json_lists_what_the_runner_reports(tmp_path):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.LAYER_UNITS
    inp, stdout = _job(LEARN, tmp_path)
    jobs = [{"input": 0, "job_s": 0.5, "ref_s": 0.01, "stdout": stdout, "problems": []}]
    metrics = run.end_to_end(jobs, [inp], setup_s=0.1)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        {name: unit for name, (_, unit) in metrics.items()}
    assert all(value > 0 for value, _ in metrics.values())


def test_measure_runs_every_input_the_same_number_of_times(tmp_path, monkeypatch):
    import hostref
    # these jobs are far shorter than the reference; timing it would hit the 4 x seconds cut
    monkeypatch.setattr(hostref, "reference_s", lambda: hostref.NOMINAL_S)
    spec = run.Workload(LEARN.argv, LEARN.levels, LEARN.n, True, 3)
    inputs, _ = run.make_inputs(spec, 2, str(tmp_path))
    jobs = run.measure(spec, inputs, seconds=0.2, traced=False)
    assert len(jobs) >= 6 and len(jobs) % 3 == 0
    assert [j["input"] for j in jobs] == [k % 3 for k in range(len(jobs))]
    assert all(j["problems"] == [] for j in jobs)


def test_job_times_are_scaled_to_the_nominal_host_speed(tmp_path):
    import hostref
    inp, stdout = _job(LEARN, tmp_path)
    slow = {"input": 0, "job_s": 2.0, "ref_s": 2 * hostref.NOMINAL_S, "stdout": stdout,
            "problems": []}
    fast = dict(slow, job_s=0.5, ref_s=hostref.NOMINAL_S / 2)
    for jobs in ([slow], [fast]):
        metrics = run.end_to_end(jobs, [inp], setup_s=0.1)
        assert metrics["job_s.p50"][0] == pytest.approx(1.0)
        assert metrics["jobs_per_s"][0] == pytest.approx(1.0)


def test_one_slow_job_does_not_move_throughput(tmp_path):
    import hostref
    inp, stdout = _job(LEARN, tmp_path)
    job = {"input": 0, "job_s": 1.0, "ref_s": hostref.NOMINAL_S, "stdout": stdout, "problems": []}
    jobs = [job] * 7 + [dict(job, job_s=10.0)]
    assert run.end_to_end(jobs, [inp], setup_s=0.1)["jobs_per_s"][0] == pytest.approx(1.0)
