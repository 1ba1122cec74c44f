from semsample import cli


def test_channel_check_passes_on_the_default_config(capsys):
    assert cli.main(["channel-check"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "all channel checks passed" in out
