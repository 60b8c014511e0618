"""Tests of the benchmark itself: each checker rejects a wrong input, the
runner pins BLAS, and the traced split adds up.  From the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import bootstrap

# the checkers' tests import numpy; pin BLAS first, as the runner does
if "numpy" not in sys.modules:
    bootstrap.prepare()
else:
    sys.path.insert(0, str(bootstrap.SRC))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from editdiff import align, metrics, model, world  # noqa: E402
from editdiff.autodiff import backward, zero_grads  # noqa: E402
from editdiff.edit_ops import CaptionState, EditOp, EditScript  # noqa: E402

import checks  # noqa: E402
import pace  # noqa: E402
import workloads  # noqa: E402
from layout import CHECKPOINT, OUT  # noqa: E402

HERE = Path(__file__).resolve().parent
K, R, I, D = EditOp.KEEP, EditOp.REPLACE, EditOp.INSERT, EditOp.DELETE


def run_bench(*args, cwd=bootstrap.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


# -- align -------------------------------------------------------------------

PAIRS = [([1, 2, 3], [1, 3]), ([], [4]), ([1, 2], [2, 1]), ([5, 5, 6], [6, 5, 5, 6])]


def test_distance_checker_accepts_program_and_rejects_off_by_one():
    dists = [align.weighted_ldist(a, b) for a, b in PAIRS]
    assert checks.check_distances(PAIRS, dists) == []
    dists[2] += 1
    assert len(checks.check_distances(PAIRS, dists)) == 1


def test_ratio_checker_rejects_off_by_one_distance():
    ratios = [align.lev_ratio(a, b) for a, b in PAIRS]
    assert checks.check_ratios(PAIRS, ratios) == []
    a, b = PAIRS[0]
    ratios[0] = (len(a) + len(b) - align.weighted_ldist(a, b) - 1) / (len(a) + len(b))
    assert len(checks.check_ratios(PAIRS, ratios)) == 1


def test_lcs_distance_matches_brute_force_oracle():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, b = ([int(s) for s in rng.integers(0, 3, rng.integers(0, 6))] for _ in range(2))
        assert checks.distance(a, b) == align.brute_force_min_distance(a, b)


def _realign(x0):
    def realign(tokens):
        state = CaptionState.from_ids([i for i, _ in tokens])
        return align.align(state, x0).slots
    return realign


def test_descent_checker_accepts_align_scripts():
    x0 = [5, 6, 7, 8]
    tokens = [(5, True), (9, False), (8, True)]
    state = CaptionState.from_ids([5, 9, 8])
    slots = align.align(state, x0).slots
    assert checks.check_descent(tokens, x0, slots, _realign(x0)) == []


@pytest.mark.parametrize("slots, why", [
    (((K, None), (K, None), (K, None)), "distance"),          # makes no progress
    (((K, None), (K, None)), "slots"),                         # wrong length
    (((K, None), (R, 9), (R, 7)), "distance"),                 # moves away
])
def test_descent_checker_rejects_bad_scripts(slots, why):
    x0 = [5, 6, 7]
    errors = checks.check_descent([(5, True), (6, True)], x0, slots, _realign(x0))
    assert len(errors) == 1 and why in errors[0]


def test_apply_slots_matches_program_applier():
    from editdiff.edit_ops import apply_script

    state = CaptionState.from_ids([3, 4, 5, 6], step=1)
    slots = ((I, 9), (K, None), (R, 8), (I, 7), (D, None))
    want = apply_script(state, EditScript(slots), decrement_step=True).ids()
    got = checks.apply_slots([(t, True) for t in state.ids()], slots)
    assert [i for i, _ in got] == want == [9, 3, 8, 5, 7]


# -- eval --------------------------------------------------------------------

@pytest.fixture(scope="module")
def eval_reports():
    corpus = world.make_corpus(world.WorldSpec(), 2000, 0)
    net, _ = model.load_checkpoint(CHECKPOINT)
    reports = {mode: metrics.evaluate(net, corpus, mode, 10, seed=3, limit=6)
               for mode in ("random:10", "ood:0.5", "control")}
    captions = {ex.scene_id: list(ex.caption) for ex in corpus.test}
    valid = set(range(2, corpus.vocab.size))
    return reports, captions, valid


def test_report_checker_accepts_program_reports(eval_reports):
    reports, captions, valid = eval_reports
    for report in reports.values():
        assert checks.check_report(report, captions, valid) == []


@pytest.mark.parametrize("mode, key", [("random:10", "output"), ("control", "output_hard")])
def test_report_checker_rejects_swapped_output_word(eval_reports, mode, key):
    reports, captions, valid = eval_reports
    report = json.loads(json.dumps(reports[mode]))
    row = report["rows"][0]
    x0 = captions[row["scene_id"]]
    swap = next(w for w in sorted(valid) if w not in x0)
    row[key][0] = swap
    assert checks.check_report(report, captions, valid)


def test_report_checker_rejects_special_ids(eval_reports):
    reports, captions, valid = eval_reports
    report = json.loads(json.dumps(reports["ood:0.5"]))
    report["rows"][1]["output"].append(1)  # PAD
    assert any("holds ids" in e for e in checks.check_report(report, captions, valid))


def test_property_checker_rejects_weak_model():
    good = {"random:10": {"em": 0.93, "ratio": 0.99},
            "ood:0.5": {"ratio": 0.9, "input_mean_ratio": 0.5},
            "control": {"retention_hard": 1.0}}
    assert checks.check_properties(good) == []
    for mode, key, value in [("random:10", "em", 0.89), ("ood:0.5", "ratio", 0.5),
                             ("control", "retention_hard", 0.99)]:
        bad = json.loads(json.dumps(good))
        bad[mode][key] = value
        assert len(checks.check_properties(bad)) == 1


# -- train -------------------------------------------------------------------

def test_loss_checker_rejects_nan_and_rising_loss():
    log = [{"epoch": 0, "loss_edit": 1.0, "loss_language": 2.0},
           {"epoch": 1, "loss_edit": 0.5, "loss_language": 1.5}]
    assert checks.check_losses(log) == []
    log[1]["loss_language"] = float("nan")
    assert checks.check_losses(log)
    log[1]["loss_language"] = 2.6
    assert checks.check_losses(log)


def test_gradient_checker_rejects_perturbed_gradient():
    cfg = model.ModelConfig(vocab_size=12, cond_vocab_size=9, embed_dim=8, num_layers=1,
                            num_heads=2, ffn_dim=16, max_seq_len=16, seed=5)
    net = model.DenoiserModel(cfg)
    gt = EditScript(((K, None), (R, 7), (I, 4), (D, None)))

    def loss():
        return model.model_loss(*net.forward([0, 1, 2], [5, 6, 7], t=3), gt)[0]

    params = net.param_list()
    backward(loss())
    grads = [p.grad.copy() for p in params]
    zero_grads(params)
    arrays = [p.data for p in params]
    coords = [(k, int(np.argmax(np.abs(g)))) for k, g in enumerate(grads) if np.any(g)][:6]
    at = lambda: float(loss().data)  # noqa: E731
    assert checks.check_gradient(at, arrays, grads, coords) == []
    k, idx = coords[2]
    grads[k].reshape(-1)[idx] *= 1.001
    assert len(checks.check_gradient(at, arrays, grads, coords)) == 1


# -- pace --------------------------------------------------------------------

def test_rescaling_cancels_a_uniform_change_of_machine_speed():
    def outcome(factor):
        out = workloads.Outcome(round_items=10, kind="numpy")
        out.round_times = [0.5 * factor, 0.4 * factor, 0.6 * factor]
        out.setup_times = [0.02 * factor, 0.03 * factor]
        out.pace.times = {"python": [0.011 * factor] * 3, "numpy": [0.006 * factor] * 3}
        return out

    slow, fast = outcome(1.0), outcome(0.5)
    assert fast.raw_items_per_s == pytest.approx(2 * slow.raw_items_per_s)
    assert fast.items_per_s == pytest.approx(slow.items_per_s)
    assert fast.setup_s == pytest.approx(slow.setup_s)
    # numpy loop at half its nominal time: the rounds ran twice as fast as nominal
    assert slow.items_per_s == pytest.approx(slow.raw_items_per_s / 2)


def test_pace_keeps_up_with_its_share_of_timed_time():
    p = pace.Pace()
    p.catch_up(0.0)
    assert all(len(t) == 1 for t in p.times.values())
    p.catch_up(2.0)
    assert pace.SHARE * 2.0 <= p.spent
    assert len(p.times["python"]) == len(p.times["numpy"])


# -- runner ------------------------------------------------------------------

def test_this_process_runs_with_blas_pinned():
    assert bootstrap.blas_threads() in (1, None)


def test_runner_pins_blas_to_one_thread():
    code = ("import sys; sys.path.insert(0, 'perfbench'); import bootstrap; "
            "bootstrap.prepare(); print(bootstrap.blas_threads())")
    env = {k: v for k, v in os.environ.items() if k not in bootstrap.BLAS_VARS}
    out = subprocess.run([sys.executable, "-c", code], cwd=bootstrap.ROOT, env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() in ("1", "None"), out.stderr


def test_traced_split_adds_up_and_reports_every_layer_metric():
    out = run_bench("--workload", "align", "--seed", "5", "--seconds", "1", "--trace", "1")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    m = {k: v["value"] for k, v in result["metrics"].items()}
    declared = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(m) == {d["name"] for d in declared}
    selfs = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert selfs + m["trace.other_s"] == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert m["align.align_us"] > 0 and m["align.lev_ratio_us"] > m["align.weighted_ldist_us"]


def test_runner_fails_without_the_program():
    OUT.mkdir(parents=True, exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=OUT))
    try:
        shutil.copy(bootstrap.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        out = run_bench("--workload", "align", "--seed", "1", "--seconds", "1", "--trace", "0",
                        cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
