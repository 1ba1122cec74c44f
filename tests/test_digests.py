"""The behaviour digests: a fixed-seed ``train`` then ``evaluate --traces``
on ``bench/digest_config.json`` must write byte-identical outputs.

A change that alters what the program computes, even in the last bit of one
float, changes a digest here.  A change meant to alter behaviour updates the
digests below and says why.  The float results, and so the digests, can
differ on a BLAS that picks other kernels than the x86-64 OpenBLAS they were
recorded with.
"""
import hashlib
from pathlib import Path

from semsample import cli

CONFIG = Path(__file__).resolve().parent.parent / "bench" / "digest_config.json"

# The state's last feature is the destination's deviation d_hat, at an
# 8-wide chi window, so the agent's outputs moved; comparison.csv and
# curves.csv also gained the every-interval deviation column.  The periodic
# policies' traces did not move.
DIGESTS = {
    "train/curves.csv": "0f9705b4dabc602e5d2db4acd5287795b421604dec2cc515d0a12f1fe3882506",
    # every loss of an update reads the parameters from before it, so the
    # trained weights moved; this short run's greedy actions did not
    "train/snapshot.json": "37a9e516a007648f884f8d7085535e71f25e96b5a71b6508a17152f9457cf18e",
    "eval/comparison.csv": "7c76c895f001a76d83d86e18334ec5dbe3998dc2cef24c99da487715564da57f",
    # evaluate --traces: one per-step trace per (clip, policy) episode
    "eval/trace_eval-busy_agent.jsonl": "1b962d0b337e3ffb3b99db5a8e65db5eec7d53413b6187ab5fd6a7564e2d05da",
    "eval/trace_eval-busy_periodic-4.jsonl": "638d681e39dba95e74dd74c564913f0d838d7ebd0538b6c4c448b0fcf0286198",
    "eval/trace_eval-busy_periodic-5.jsonl": "53550a134e5bb02dbf82d9d02bdec029be2d22419ff871389c06d00d747d8a1e",
    "eval/trace_eval-busy_periodic-6.jsonl": "23eb8ab1d5084a605a1cd256183bf01cbdd9fc31ff7b2b25325e13db2e8be473",
    "eval/trace_eval-busy_periodic-7.jsonl": "47bf89655b7ec08d7aa3ef124e3fa9fa2bd1feebf8b361228062d2beecb05525",
    "eval/trace_eval-fast_agent.jsonl": "5681a37a6be30d3621bb4a64767bf28b77846419d05ed002461e18d2aaff84ac",
    "eval/trace_eval-fast_periodic-4.jsonl": "6ff7050c632dca2e236e4699e8e6aac76e48661f1e5cc2cefcda45bb59b8ea9f",
    "eval/trace_eval-fast_periodic-5.jsonl": "687ece7049beee6b5e519b1bfdf8d94a58d9ca41040ac55562989e4aece17e6a",
    "eval/trace_eval-fast_periodic-6.jsonl": "cb1fc06e2ec927a3a45bc96c3535807e91278b3cc4826eb2c011d1d6eccf0d97",
    "eval/trace_eval-fast_periodic-7.jsonl": "53c1b2abe0a081b61c0e000a15467b294df0c699137f7bdd5c10a69419a1b42d",
    "eval/trace_eval-sparse_agent.jsonl": "55442f890d6c2c82a1fa9dd6ba9fe472816554ceb8bd188dd5b8be31227d647a",
    "eval/trace_eval-sparse_periodic-4.jsonl": "3f454f7369b4a87dffe4480881eecaa37353efadfee2dac7e9602869bc4162bd",
    "eval/trace_eval-sparse_periodic-5.jsonl": "d09ef3dcb1169a0bf2b086385ccdadee1b7de9fc6d4059d57c27215bbda8210e",
    "eval/trace_eval-sparse_periodic-6.jsonl": "847b1a722979397f1543e932424717684ed7e4bf9e51f218f0cf87ee215f6c5d",
    "eval/trace_eval-sparse_periodic-7.jsonl": "82b0dd51276ffcc87ef0b7ca2692263be2f55d47b3d422acab6ee314306476f8",
}


def test_train_and_evaluate_reproduce_the_behaviour_digests(tmp_path):
    train, evaluate = tmp_path / "train", tmp_path / "eval"
    assert cli.main(["train", "--config", str(CONFIG), "--out", str(train)]) == cli.EXIT_OK
    assert cli.main(["evaluate", "--config", str(CONFIG), "--snapshot", str(train / "snapshot.json"),
                     "--traces", "--out", str(evaluate)]) == cli.EXIT_OK
    assert {p.name for p in evaluate.glob("trace_*")} == {
        Path(name).name for name in DIGESTS if "/trace_" in name}
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in DIGESTS}
    assert got == DIGESTS
