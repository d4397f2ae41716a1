"""The CLI's own text: help, usage, version and parse errors, byte for byte.

Each case runs ``main`` in-process at an 80-column terminal and pins the
exit code, standard output and standard error by one sha256. Most of this
text reads the same on Python 3.10-3.13. Two things depend on the
argparse release, and their digests are keyed by it: Python 3.13 widens
the command column of the top-level help, and later patch releases list
an invalid choice's options by ``str`` rather than ``repr``. A change
that moves any of these bytes must update the digest on purpose and say
which bytes moved and why.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import sys

import pytest

from kappasim import cli
from kappasim.cli import build_parser, main

COMMANDS = (
    "preprocess", "synth", "kappa", "simulate", "fit", "minmodel", "variation", "intervals",
)

CASES = {
    "help": ["--help"],
    **{f"{command}_help": [command, "--help"] for command in COMMANDS},
    "version": ["--version"],
    "no_arguments": [],
    "unknown_command": ["frobnicate"],
    "missing_required_flag": ["kappa"],
    "missing_required_group": ["fit", "--kappa-hat", "0.2"],
    "abbreviated_flag": ["minmodel", "--n", "3", "--k", "5", "--kappa", "0.2"],
    "bad_int_type": ["synth", "--raters", "x", "--items", "2"],
    "bad_float_type": ["minmodel", "--n", "3", "--k", "5", "--kappa-hat", "abc"],
    "bad_choice": ["fit", "--runs", "runs.csv", "--stage", "S9"],
    "unknown_flag": ["intervals", "--cv", "0.1", "--n", "3", "--kappa-hat", "0.2", "--x"],
}

GOLDEN = {
    "abbreviated_flag": "c8fd2b0e3db8d046eddaaf2e1453f98f57f2f73b2db3f76815a71cce9512c7fb",
    "bad_float_type": "5f81a8f5a632c07cb5a829b95a657dd1332cae7c69097bb87651ec5cb0c141b9",
    "bad_int_type": "5ac64cf3c7d5c178c6544a4f95b3fed9f4b12c00142884bbbcf397bb398e9c39",
    "fit_help": "2f223031e6bcfb6e8b0a6aa081cb649aad457257dad36018aa045da26ea5622a",
    "intervals_help": "cc2a30940f680e3bff0a168272641bb5090dd1414dbcee1a886a581d0b101ab7",
    "kappa_help": "4bfa4300ff95a1bd714984e4eafbd845e8fa07290039195c324889b568a25a1b",
    "minmodel_help": "e7d69111ef8c1bd837e7305321f4d50746a67e8363d1d24f107809979934f03a",
    "missing_required_flag": "770ea4a0ada79275482f0e554e42e4532c3752f17ff090a0a435ea80489424c7",
    "missing_required_group": "fa794fab7a1996e827bf03c542ade4f62da7ce3fa69af4024a4cdb34dc7760c8",
    "no_arguments": "4b7d62e9f511499df67c07327fcd787ba9e429524350553e337e54dcc8991b8c",
    "preprocess_help": "7310cd2124b7f6d2c375d1741bdc0d604ef887ed21bf06fc7425672f6b80b06b",
    "simulate_help": "76272dfea301e4b93e3b57440544b79f4700b51bd8d74144bb12c2441ccd05fa",
    "synth_help": "ba7ff21175d29701ce339b1c627c7b285b59646640049c27ed82bc0d3e0559ab",
    "unknown_flag": "0bd36e2861978fcc4ec759946b65f9485604d9afcd325361cdd9bc5e9e3f5933",
    "variation_help": "9365124d66ec87f27e5f11dc807f799e7314c13573078a0e8eb7a532b6d6a0bb",
    "version": "dad60f9c8a465366ccff3849fcf0dc01914f5104c398e608cd3c4da1750f7478",
}

# (case, argparse variant) for the text that depends on the release; see _variant
VARIANT_GOLDEN = {
    ("help", "3.10-3.12"): "19c04a045918865afa27fe9f8a5205018bca61d6d62445ba1a5d54d846b220fc",
    ("help", "3.13"): "4fe13bd9ce7cdf59454e20324b95a343a733ac34271137fdd2bc174a745f94d7",
    ("unknown_command", "repr"): "b1ed193d514ebf17f142a9db5ee843576979c17aabeabd54402907d58b5e847a",
    ("unknown_command", "str"): "afe7524243f12071bf400101d88a8e14781df1644bf484e017feb370626764da",
    ("bad_choice", "repr"): "65b102bba7f0638688081e24f430cde4507bb596ae294534a6dd3e641cd90396",
    ("bad_choice", "str"): "54b06587a340078ee47436e75db2e4bbfb86ad95e22201f89f697f597b4ea319",
}


def _variant(name: str) -> str | None:
    """The argparse variant a case's text depends on: the help layout (by
    Python version; None past the versions recorded) for the top-level
    help, or how an invalid choice's options are listed, probed on a
    parser of its own."""
    if name == "help":
        if sys.version_info >= (3, 14):
            return None
        return "3.10-3.12" if sys.version_info < (3, 13) else "3.13"
    probe = argparse.ArgumentParser(exit_on_error=False)
    probe.add_argument("x", choices=["a"])
    with pytest.raises(argparse.ArgumentError) as error:
        probe.parse_args(["b"])
    return "repr" if "'a'" in str(error.value) else "str"


def cli_text(argv: list[str], capsys) -> str:
    """Exit code, standard output and standard error of one ``main`` call."""
    code = main(argv)
    out, err = capsys.readouterr()
    return f"exit {code}\n--- stdout\n{out}--- stderr\n{err}"


@pytest.fixture(autouse=True)
def terminal(monkeypatch):
    # argparse wraps help and usage at the terminal's width, read from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("LINES", "24")


def test_every_command_is_a_case():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert tuple(sub.choices) == COMMANDS


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_text(name, capsys):
    if name in GOLDEN:
        want = GOLDEN[name]
    else:
        variant = _variant(name)
        if variant is None:
            pytest.skip(f"no {name} digest recorded for Python {sys.version_info[:2]}")
        want = VARIANT_GOLDEN[name, variant]
    text = cli_text(CASES[name], capsys)
    assert hashlib.sha256(text.encode()).hexdigest() == want, text


def _eager_subparser(fill, **kwargs) -> cli._Parser:
    """A subcommand's parser built at once, as ``add_parser`` builds one."""
    parser = cli._Parser(**kwargs)
    fill(parser)
    return parser


@pytest.mark.parametrize("name", sorted(CASES))
def test_lazy_subparsers_read_as_eager_ones(name, capsys, monkeypatch):
    # runs on every Python, whether or not a digest is recorded for it
    lazy = cli_text(CASES[name], capsys)
    monkeypatch.setattr(cli, "_Subparser", _eager_subparser)
    assert cli_text(CASES[name], capsys) == lazy


@pytest.mark.parametrize(
    "argv, built",
    [
        (["--help"], ["kappasim"]),
        (["fit", "--help"], ["kappasim", "kappasim fit"]),
        (["minmodel", "--n", "3", "--k", "5", "--kappa-hat", "0.2"],
         ["kappasim", "kappasim minmodel"]),
    ],
)
def test_a_call_builds_only_the_parser_it_names(argv, built, capsys, monkeypatch):
    progs = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        progs.append(self.prog)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    main(argv)
    assert progs == built


def test_a_subparser_build_error_surfaces_as_raised():
    # an AttributeError while a subparser builds must reach the caller as
    # it was raised, not loop back through the lookup that started the build
    def broken(parser):
        parser.add_argument("--x").no_such_attribute

    sub = cli._Subparser(broken, prog="kappasim broken")
    with pytest.raises(AttributeError, match="no_such_attribute"):
        sub.parse_known_args([])


def test_a_subparser_copies_before_and_after_its_build():
    sub = cli._Subparser(cli._minmodel_arguments, prog="kappasim minmodel")
    fresh = copy.copy(sub)
    args, _ = sub.parse_known_args(["--n", "3", "--k", "5", "--kappa-hat", "0.2"])
    assert copy.copy(sub).format_usage() == fresh.format_usage()
    assert (args.n, args.k, args.kappa_hat) == (3, 5, 0.2)
