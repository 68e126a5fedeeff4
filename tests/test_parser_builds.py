"""``build_parser`` builds a subcommand's parser once, when the subparsers action is first called with its name:
not for ``--version`` or an unknown command, and not again for a second command line."""

import contextlib
import io

import pytest
from test_parser import _eager_parser

from eltsim import cli
from eltsim.cli import build_parser


@pytest.fixture()
def built(monkeypatch):
    """The ``prog`` of every ``cli._Parser`` made, in order."""
    progs = []
    init = cli._Parser.__init__

    def recorded(self, *args, **kwargs):
        progs.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", recorded)
    return progs


def test_one_parser_builds_a_subcommand_once_for_two_command_lines(built):
    lines = [["verify", "--config", "a.cfg"], ["verify", "--config", "b.cfg", "--points", "7", "--skip-quadrature"]]
    parser = build_parser()
    parsed = [vars(parser.parse_args(line)) for line in lines]
    assert built == ["eltsim", "eltsim verify"]
    assert parsed == [vars(_eager_parser().parse_args(line)) for line in lines]


@pytest.mark.parametrize("argv", [["--version"], ["bogus", "--config", "run.cfg"]], ids=["version", "unknown"])
def test_a_line_that_names_no_subcommand_builds_no_subcommand_parser(built, argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
    assert built == ["eltsim"]
