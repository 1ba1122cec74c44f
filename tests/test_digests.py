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
    # evaluate --traces: one per-step trace per (clip, policy) episode;
    # each step gained display_deviation, so all fifteen moved
    "eval/trace_eval-busy_agent.jsonl": "9831f5ac14899ff126cd7fe2d44d3be3a7f3a3b48f430aad767814cd77e43ee8",
    "eval/trace_eval-busy_periodic-4.jsonl": "2ef4dbf91a661b8154600a2085949978018d956f3d46c1af630594cb8d4fd0e5",
    "eval/trace_eval-busy_periodic-5.jsonl": "cae2d29face35ccc569206a29e49a2ad03deb9ef2fb6b5c5a00ace71f9fb36b6",
    "eval/trace_eval-busy_periodic-6.jsonl": "85e9fb32188c66333d29aadd91c7251ae01966f3cbba9b2a55cf84c955722740",
    "eval/trace_eval-busy_periodic-7.jsonl": "59b119768c0da960c33790bf09660e802e42a115d8379776de89dbdd1886f026",
    "eval/trace_eval-fast_agent.jsonl": "1f3fdf213e4aa6fcb502d93c661eaa1e99f6506bcb5dc803665bbd7142eab9ff",
    "eval/trace_eval-fast_periodic-4.jsonl": "3a940fff3ca746855d2a916ecee831f62d38ae7b11ad8a24fabf1990ac3baedc",
    "eval/trace_eval-fast_periodic-5.jsonl": "116e6da937c25481300477d286794b0bd730e02459e8955f39a120a104d706a1",
    "eval/trace_eval-fast_periodic-6.jsonl": "2d772388cdaf84381eb1d86e6a7f31c8d06954fdb0af54678f75ede1cb068f16",
    "eval/trace_eval-fast_periodic-7.jsonl": "685a8763c6da357335eaef8db137f996ae8826cbc2c6a1dd7b2f6796cae3002e",
    "eval/trace_eval-sparse_agent.jsonl": "ab4ee74314d9b47a0bbbe24ed235ec0492ce8c3876a6985f5d4db188f1e37d7c",
    "eval/trace_eval-sparse_periodic-4.jsonl": "6458aafd54a530b0501b3186bbe85ac2ad63926efc296a2c68104ac99734a295",
    "eval/trace_eval-sparse_periodic-5.jsonl": "1862423a2f6e86f99af544fc7b03f546dc709c3ef24910b24681f11f1e13e329",
    "eval/trace_eval-sparse_periodic-6.jsonl": "3708d94c2fdc201877f9c0fc379a7aa50504f27419a9e5f0ef502caf607e6976",
    "eval/trace_eval-sparse_periodic-7.jsonl": "e9f082fc7a5596fdec17cfa8654b6f980cadce5076e45527b180b25e7281717e",
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
