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

DIGESTS = {
    "train/curves.csv": "1b2802a26f86a3ba2cd33bbf289b17387efa8b2bd867a2ba663014a711811fc3",
    # every loss of an update reads the parameters from before it, so the
    # trained weights moved; this short run's greedy actions did not
    "train/snapshot.json": "1736fdc657f8e97799c2c7f9a74ee05f2dceb30590c7808fc05d37338e8f760c",
    "eval/comparison.csv": "f41318d0727adf00d664ea6be513ad38ada9dbc263b05117821f2bd2f4c3e5f9",
    # evaluate --traces: one per-step trace per (clip, policy) episode
    "eval/trace_eval-busy_agent.jsonl": "0ee5036126735c9cf8c2a60ebc43aa66a079a42b92a1740c9507a7986e0de24f",
    "eval/trace_eval-busy_periodic-4.jsonl": "638d681e39dba95e74dd74c564913f0d838d7ebd0538b6c4c448b0fcf0286198",
    "eval/trace_eval-busy_periodic-5.jsonl": "53550a134e5bb02dbf82d9d02bdec029be2d22419ff871389c06d00d747d8a1e",
    "eval/trace_eval-busy_periodic-6.jsonl": "23eb8ab1d5084a605a1cd256183bf01cbdd9fc31ff7b2b25325e13db2e8be473",
    "eval/trace_eval-busy_periodic-7.jsonl": "47bf89655b7ec08d7aa3ef124e3fa9fa2bd1feebf8b361228062d2beecb05525",
    "eval/trace_eval-fast_agent.jsonl": "8c305106316f74b3f9a8d725310d7f511a605cb803a692df2afc54f81221f599",
    "eval/trace_eval-fast_periodic-4.jsonl": "6ff7050c632dca2e236e4699e8e6aac76e48661f1e5cc2cefcda45bb59b8ea9f",
    "eval/trace_eval-fast_periodic-5.jsonl": "687ece7049beee6b5e519b1bfdf8d94a58d9ca41040ac55562989e4aece17e6a",
    "eval/trace_eval-fast_periodic-6.jsonl": "cb1fc06e2ec927a3a45bc96c3535807e91278b3cc4826eb2c011d1d6eccf0d97",
    "eval/trace_eval-fast_periodic-7.jsonl": "53c1b2abe0a081b61c0e000a15467b294df0c699137f7bdd5c10a69419a1b42d",
    "eval/trace_eval-sparse_agent.jsonl": "eb1814677ca0a1d3633156dfe7113fb95eec059cce8575b82498da6904c8d29e",
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
