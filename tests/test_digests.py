"""The behaviour digests: a fixed-seed ``train`` then ``evaluate`` on
``bench/digest_config.json`` must write byte-identical outputs.

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
    "train/snapshot.json": "80c1ef81300fb466d284a4f7c60ab0953ebf9c905489b9f77b900fc35a8a3911",
    "eval/comparison.csv": "f41318d0727adf00d664ea6be513ad38ada9dbc263b05117821f2bd2f4c3e5f9",
}


def test_train_and_evaluate_reproduce_the_behaviour_digests(tmp_path):
    train, evaluate = tmp_path / "train", tmp_path / "eval"
    assert cli.main(["train", "--config", str(CONFIG), "--out", str(train)]) == cli.EXIT_OK
    assert cli.main(["evaluate", "--config", str(CONFIG), "--snapshot", str(train / "snapshot.json"),
                     "--out", str(evaluate)]) == cli.EXIT_OK
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in DIGESTS}
    assert got == DIGESTS
