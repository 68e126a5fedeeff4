"""``build_parser`` builds only the subcommand a command line names; each of its texts and errors is the one a
parser built eagerly, every subcommand with argparse's plain ``add_parser``, gives from the same flags functions."""

import contextlib
import io

import pytest

from eltsim import __version__, cli
from eltsim.cli import build_parser

NAMES = [name for name, _, _ in cli._COMMANDS]


def _eager_parser():
    lazy = build_parser()
    parser = cli._Parser(prog=lazy.prog, description=lazy.description)
    parser.add_argument("--version", action="version", version=f"eltsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help, flags in cli._COMMANDS:
        flags(sub.add_parser(name, help=help))
    return parser


def _run(parser, argv):
    """(exit code, stdout, stderr, parsed fields) of one ``parse_args``: exit code None where it parses."""
    out, err = io.StringIO(), io.StringIO()
    code, fields = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            fields = vars(parser.parse_args(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), fields


def test_the_lazy_parser_is_a_lazy_subparsers_action():
    # the eager reference below would compare a parser with itself if build_parser stopped using the lazy action
    assert isinstance(build_parser()._subparsers._group_actions[0], cli._Subcommands)
    assert not isinstance(_eager_parser()._subparsers._group_actions[0], cli._Subcommands)


def test_top_level_help_is_the_eager_text():
    assert build_parser().format_help() == _eager_parser().format_help()
    assert build_parser().format_usage() == _eager_parser().format_usage()


@pytest.mark.parametrize("name", NAMES)
def test_every_subcommand_help_is_the_eager_text(name):
    lazy, eager = _run(build_parser(), [name, "--help"]), _run(_eager_parser(), [name, "--help"])
    assert lazy == eager
    assert lazy[0] == 0 and lazy[1].startswith(f"usage: eltsim {name} [-h] --config CONFIG [--out OUT]")


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["bogus", "--config", "run.cfg"],
        ["--version"],
        ["verify"],
        ["sweep", "--parameter", "d", "--range", "1", "2"],
        ["intensity", "--config", "run.cfg", "--branch", "nope"],
        ["states", "--config", "run.cfg", "--measurement", "nope"],
        ["sweep", "--config", "run.cfg", "--parameter", "nope", "--range", "1", "2"],
        ["intensity", "--grid-min", "-1e-6"],
        ["intensity", "--config", "run.cfg", "--grid-min", "-1e-6", "--grid-max", "1e-6"],
        ["intensity", "--config", "run.cfg", "--grid-min", "-1__0"],
        ["verify", "--config", "run.cfg", "--points", "x"],
        ["verify", "--config", "run.cfg", "--skip-quadrature", "--unknown"],
        ["states", "--config", "-1e-6", "--measurement", "bell"],
    ],
    ids=["no-command", "unknown", "unknown-with-flags", "version", "missing-config", "sweep-missing-config",
         "bad-branch", "bad-measurement", "bad-parameter", "negative-without-config", "negative-edges",
         "not-a-number", "bad-int", "unknown-flag", "negative-config-path"],
)
def test_every_error_and_parse_is_the_eager_one(argv):
    lazy = _run(build_parser(), argv)
    assert lazy == _run(_eager_parser(), argv)
    assert (lazy[0] in (None, 0)) == (lazy[2] == "")  # an error is argparse's exit 2 with its usage on stderr


def test_parsing_a_command_builds_only_its_own_parser(monkeypatch):
    built = []
    init = cli._Parser.__init__

    def recorded(self, *args, **kwargs):
        built.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", recorded)
    args = build_parser().parse_args(["verify", "--config", "run.cfg", "--skip-quadrature"])
    assert built == ["eltsim", "eltsim verify"]
    assert (args.func, args.skip_quadrature) == (cli.cmd_verify, True)
    built.clear()
    build_parser().format_help()  # the top-level help reads the names and help lines alone
    assert built == ["eltsim"]
