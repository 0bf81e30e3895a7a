"""The help of every command and the top-level usage errors, byte for byte at 80 columns, as the
argparse of Python 3.10 and 3.11 words them: an option that moves in a command's help, such as
--output, which is last in each, shows here."""

import pytest

from topecycles.cli import main

_HELP = {
    "-h": """\
usage: topecycles [-h]
                  {gen,topes,cycle,decompose,fvector,verify-ds,census,nu} ...

Composable subcommands over JSON documents: generation, enumeration, cycles,
decompositions, f-vectors, verification.

positional arguments:
  {gen,topes,cycle,decompose,fvector,verify-ds,census,nu}
    gen                 generate an instance (arrangement or tope set)
    topes               enumerate the chambers of an arrangement
    cycle               symmetric-cycle operations
    decompose           minimal decomposition of a tope over a cycle
    fvector             long f-vector of the complex attached to a tope
    verify-ds           check the Dehn-Sommerville type relations
    census              decomposition-size histogram over a tope set
    nu                  feasible-subsystem counts of a rank-2 arrangement

options:
  -h, --help            show this help message and exit
""",
    "gen -h": """\
usage: topecycles gen [-h] --t T [--r R] [--output FILE]
                      {hypercube,rank2_fan,moment_curve,totally_cyclic_fan}

positional arguments:
  {hypercube,rank2_fan,moment_curve,totally_cyclic_fan}

options:
  -h, --help            show this help message and exit
  --t T
  --r R                 ambient dimension (moment_curve only)
  --output FILE         write here instead of stdout
""",
    "topes -h": """\
usage: topecycles topes [-h] --arrangement FILE [--output FILE]

options:
  -h, --help          show this help message and exit
  --arrangement FILE
  --output FILE       write here instead of stdout
""",
    "cycle -h": """\
usage: topecycles cycle [-h] {canonical,find,validate} ...

positional arguments:
  {canonical,find,validate}
    canonical           the canonical hypercube cycle
    find                search a tope set for a symmetric cycle
    validate            check the symmetric-cycle invariants

options:
  -h, --help            show this help message and exit
""",
    "cycle canonical -h": """\
usage: topecycles cycle canonical [-h] --t T [--output FILE]

options:
  -h, --help     show this help message and exit
  --t T
  --output FILE  write here instead of stdout
""",
    "cycle find -h": """\
usage: topecycles cycle find [-h] --topes FILE [--start START] [--seed SEED]
                             [--output FILE]

options:
  -h, --help     show this help message and exit
  --topes FILE
  --start START  start tope as a '+'/'-' string
  --seed SEED
  --output FILE  write here instead of stdout
""",
    "cycle validate -h": """\
usage: topecycles cycle validate [-h] --cycle FILE [--topes FILE]
                                 [--output FILE]

options:
  -h, --help     show this help message and exit
  --cycle FILE
  --topes FILE   additionally require membership in this tope set
  --output FILE  write here instead of stdout
""",
    "decompose -h": """\
usage: topecycles decompose [-h] --tope TOPE --cycle FILE|canonical
                            [--output FILE]

options:
  -h, --help            show this help message and exit
  --tope TOPE
  --cycle FILE|canonical
  --output FILE         write here instead of stdout
""",
    "fvector -h": """\
usage: topecycles fvector [-h] --tope TOPE --cycle FILE|canonical
                          [--output FILE]

options:
  -h, --help            show this help message and exit
  --tope TOPE
  --cycle FILE|canonical
  --output FILE         write here instead of stdout
""",
    "verify-ds -h": """\
usage: topecycles verify-ds [-h] --fvector FILE [--output FILE]

options:
  -h, --help      show this help message and exit
  --fvector FILE  f-vector document to check
  --output FILE   write here instead of stdout
""",
    "census -h": """\
usage: topecycles census [-h] --topes FILE --cycle FILE|canonical
                         [--list-topes] [--output FILE]

options:
  -h, --help            show this help message and exit
  --topes FILE
  --cycle FILE|canonical
  --list-topes          include the topes of each size class
  --output FILE         write here instead of stdout
""",
    "nu -h": """\
usage: topecycles nu [-h] --arrangement FILE [--output FILE]

options:
  -h, --help          show this help message and exit
  --arrangement FILE
  --output FILE       write here instead of stdout
""",
}

_USAGE_ERRORS = {
    "": "topecycles: error: the following arguments are required: command\n",
    "cycle": "topecycles: error: the following arguments are required: cycle_command\n",
    "nosuch": "topecycles: error: argument command: invalid choice: 'nosuch' (choose from 'gen', 'topes', 'cycle', 'decompose', 'fvector', 'verify-ds', 'census', 'nu')\n",
}


@pytest.mark.parametrize("argv", list(_HELP))
def test_the_help_of_each_command_is_pinned(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as excinfo:
        main(argv.split())
    assert excinfo.value.code == 0
    assert capsys.readouterr() == (_HELP[argv], "")


@pytest.mark.parametrize("argv", list(_USAGE_ERRORS))
def test_the_top_level_usage_errors_are_pinned(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv.split()) == 1
    assert capsys.readouterr() == ("", _USAGE_ERRORS[argv])
