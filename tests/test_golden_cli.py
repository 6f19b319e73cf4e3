"""The command line's output against the golden transcript, ``tests/golden_cli.txt``.

Regenerate the transcript with ``python tests/golden_cli.py --write``.
"""

from golden_cli import GOLDEN, by_argv, differences, run, transcript

from burgebox import partitions


def test_cli_output_matches_the_golden_transcript():
    problems = differences(GOLDEN.read_text().splitlines(), transcript())
    assert not problems, "\n".join(problems)


def test_a_changed_error_message_is_named_by_its_argv(monkeypatch):
    argvs = (["dmap", "3,x"], ["decode", "abaa"], ["encode", "3"])
    golden = by_argv(GOLDEN.read_text().splitlines())
    now = [run(argv) for argv in argvs]
    was = [golden[line.split(" ", 3)[3]] for line in now]
    assert differences(was, now) == []
    monkeypatch.setattr(partitions, "_quoted", lambda text: "'?'")  # the partition parser's quote
    (problem,) = differences(was, [run(argv) for argv in argvs])
    assert problem.startswith("changed: dmap 3,x\n")
