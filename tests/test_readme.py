"""README's examples as written: the library example runs, every ``windmpc``
command line parses and the configuration block builds, so a public name,
CLI option or config key that leaves the package fails the suite."""

import re
import shlex
from pathlib import Path

from windmpc.cli import build_parser
from windmpc.config import build_config, read_kv_file

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced(language):
    return re.findall(rf"```{language}\n(.*?)```", README, re.S)


def test_library_example_runs(capsys):
    (example,) = fenced("python")
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("Metrics(")


def test_cli_lines_parse():
    lines = [line.split("#")[0] for block in fenced("sh")
             for line in block.splitlines() if line.startswith("windmpc ")]
    assert len(lines) == 5
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_config_block_builds(tmp_path):
    (block,) = fenced("ini")
    path = tmp_path / "readme.cfg"
    path.write_text(block)
    config = build_config(read_kv_file(path))
    assert (config.turbine.t_g_max, config.weights.n_p, config.controller) \
        == (9449.9, 20, "both")
