"""Command line interface: outputs and exit codes.

Exit convention under test: 0 success, 1 usage or input trouble,
2 domain verdicts (not split, failed check).
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from splitfactor.cli import main

REPO = Path(__file__).resolve().parent.parent

DEMO_TEXT = """\
K: x y z t
I: 1 2 3 4
1 x
2 y
3 x
3 z
4 x
4 y
4 t
"""


EXTREMAL_7_DOT = """\
K: x1 x2 x3 x4 x5
I: y1 y2 y3 y4 y5
y1 x1
y2 x2
y3 x1
y3 x3
y4 x1
y4 x2
y4 x4
y5 x1
y5 x2
y5 x3
y5 x5
graph phi {
  "y1";
  "y2";
  "y3";
  "y4";
  "y5";
  "y1" -- "y2" [label=1, penwidth=1];
  "y2" -- "y3" [label=2, penwidth=2];
  "y3" -- "y4" [label=2, penwidth=2];
  "y4" -- "y5" [label=2, penwidth=2];
}
"""


@pytest.fixture
def demo_file(tmp_path):
    f = tmp_path / "demo.split"
    f.write_text(DEMO_TEXT)
    return str(f)


def write(tmp_path, name, text):
    f = tmp_path / name
    f.write_text(text)
    return str(f)


class TestPhi:
    def test_listing(self, demo_file, capsys):
        assert main(["phi", demo_file]) == 0
        assert capsys.readouterr().out == "1 2 1\n2 3 2\n3 4 2\n"

    def test_dot_appended(self, demo_file, capsys):
        assert main(["phi", demo_file, "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("1 2 1\n")
        assert "graph phi {" in out and '"3" -- "4" [label=2, penwidth=2];' in out

    def test_dot_escapes_quote_and_backslash(self, tmp_path, capsys):
        path = write(tmp_path, "quote.split", 'K: x y\nI: a"b c\\\na"b x\nc\\ y\n')
        assert main(["phi", path, "--dot"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            r'a"b c\ 1',
            "graph phi {",
            r'  "a\"b";',
            r'  "c\\";',
            r'  "a\"b" -- "c\\" [label=1, penwidth=1];',
            "}",
        ]

    def test_missing_file(self, tmp_path, capsys):
        assert main(["phi", str(tmp_path / "nope.split")]) == 1
        assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "recognize"])
def test_non_utf8_file_exit_1(tmp_path, capsys, command):
    f = tmp_path / "latin.split"
    f.write_bytes(b"K: a\nI: \xff\xfe\n")
    assert main([command, str(f)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"splitfactor: error: cannot read {f}: 'utf-8' codec can't decode")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command, text", [
    ("phi", DEMO_TEXT),
    ("recognize", "a b\nb c\n"),
], ids=["split", "edge-list"])
def test_byte_order_mark_ignored(tmp_path, capsys, command, text):
    plain = write(tmp_path, "plain.txt", text)
    marked = tmp_path / "marked.txt"
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert main([command, plain]) == 0
    expected = capsys.readouterr()
    assert main([command, str(marked)]) == 0
    assert capsys.readouterr() == expected


class TestVerify:
    def test_all_checks_pass(self, demo_file, capsys):
        assert main(["verify", demo_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"instance: {demo_file}\n")
        assert out.count("CHECK ") == 22
        assert out.count(" PASS") == 22 and " FAIL" not in out
        assert out.rstrip().endswith("summary: 22 checks, 0 failures")

    def test_notes_are_printed(self, tmp_path, capsys):
        f = write(tmp_path, "twins.split", "K: x\nI: 1 2\n1 x\n2 x\n")
        assert main(["verify", f]) == 0
        assert "NOTE nesting-iff-zero neighborhood-equal-pairs=1" in capsys.readouterr().out

    def test_max_len_flag(self, demo_file, capsys):
        # the path search needs no length cap, so there is no option to set one
        with pytest.raises(SystemExit) as exc:
            main(["verify", demo_file, "--max-len", "3"])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == "" and err.endswith(": error: unrecognized arguments: --max-len 3\n")

    def test_parse_error_exit_1(self, tmp_path, capsys):
        f = write(tmp_path, "bad.split", "K: x\nI: 1 2\n1 2\n")
        assert main(["verify", f]) == 1
        err = capsys.readouterr().err
        assert err.startswith("splitfactor: error: line 3:")

    def test_bad_clique_label_blamed_on_k_line(self, tmp_path, capsys):
        f = write(tmp_path, "dup.split", "K: x x\nI: 1\n")
        assert main(["verify", f]) == 1
        err = capsys.readouterr().err
        assert err.startswith("splitfactor: error: line 1: duplicate vertex label: 'x'")


class TestMoves:
    def test_listing(self, demo_file, capsys):
        assert main(["moves", demo_file]) == 0
        assert capsys.readouterr().out == (
            "1 x 2 y\n2 y 3 x\n2 y 3 z\n3 z 4 y\n3 z 4 t\n"
        )


class TestRecognize:
    def test_split_graph(self, tmp_path, capsys):
        f = write(tmp_path, "p3.edges", "a b\nb c\n")
        assert main(["recognize", f]) == 0
        assert capsys.readouterr().out == "K: a b\nI: c\n"

    def test_five_cycle(self, tmp_path, capsys):
        f = write(tmp_path, "c5.edges", "a b\nb c\nc d\nd e\ne a\n")
        assert main(["recognize", f]) == 2
        assert capsys.readouterr().out == "NOT-SPLIT\n"

    def test_isolated_vertices_via_header(self, tmp_path, capsys):
        f = write(tmp_path, "iso.edges", "V: c\na b\n")
        assert main(["recognize", f]) == 0
        assert capsys.readouterr().out == "K: a b\nI: c\n"

    def test_empty_file(self, tmp_path, capsys):
        f = write(tmp_path, "empty.edges", "# nothing\n")
        assert main(["recognize", f]) == 0
        assert capsys.readouterr().out == "K:\nI:\n"

    def test_malformed_line_exit_1(self, tmp_path, capsys):
        f = write(tmp_path, "bad.edges", "a b c\n")
        assert main(["recognize", f]) == 1
        assert capsys.readouterr().err == (
            "splitfactor: error: line 1: expected an edge line 'u v', got 'a b c'\n"
        )

    @pytest.mark.parametrize("text, error", [
        ("a b\nc c\n", "line 2: loop on vertex 'c'"),
        ("a b\n#c d\nc #d\n", "line 3: vertex label may not start with '#': '#d'"),
        ("a b\n\nV: c #z\n", "line 3: vertex label may not start with '#': '#z'"),
    ], ids=["loop", "edge-label", "declared-label"])
    def test_bad_line_named(self, tmp_path, capsys, text, error):
        f = write(tmp_path, "bad.edges", text)
        assert main(["recognize", f]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"splitfactor: error: {error}\n"


class TestExtremal:
    def test_base_member_text(self, capsys):
        assert main(["extremal", "1"]) == 0
        assert capsys.readouterr().out == "K: x1 x2\nI: y1 y2\ny1 x1\ny2 x2\n"

    def test_dot_flag(self, capsys):
        assert main(["extremal", "5", "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("K: x1 x2 x3 x4\n")
        assert "graph phi {" in out

    def test_member_7_with_dot_frozen(self, capsys):
        assert main(["extremal", "7", "--dot"]) == 0
        out, err = capsys.readouterr()
        assert out == EXTREMAL_7_DOT and err == ""

    def test_bad_index_exit_1(self, capsys):
        assert main(["extremal", "0"]) == 1
        assert "n >= 1" in capsys.readouterr().err

    def test_failed_check_exit_2(self, capsys, monkeypatch):
        import splitfactor.cli
        from splitfactor import CheckResult

        failed = CheckResult("extremal-path-shape", False, "n=1; factor graph is not a path")
        monkeypatch.setattr(
            splitfactor.cli, "verify_extremal",
            lambda inst: [CheckResult("extremal-switch-degree", True), failed],
        )
        assert main(["extremal", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "K: x1 x2\nI: y1 y2\ny1 x1\ny2 x2\n"
        assert err == f"{failed.line()}\n"


class TestSweep:
    def test_exhaustive(self, capsys):
        assert main(["sweep", "--kmax", "2", "--imax", "2"]) == 0
        assert capsys.readouterr().out == "16 instances, 0 failures\n"

    def test_random_mode(self, capsys):
        rc = main([
            "sweep", "--kmax", "6", "--imax", "6",
            "--mode", "random", "--count", "25", "--seed", "3",
        ])
        assert rc == 0
        assert capsys.readouterr().out == "25 instances, 0 failures\n"

    def test_thread_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SPLITFACTOR_THREADS", "1")
        assert main(["sweep", "--kmax", "2", "--imax", "2", "--workers", "8"]) == 0
        assert "16 instances" in capsys.readouterr().out

    def test_thread_cap_must_be_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("SPLITFACTOR_THREADS", "many")
        assert main(["sweep", "--kmax", "2", "--imax", "2", "--workers", "2"]) == 1
        assert "must be an integer" in capsys.readouterr().err

    @staticmethod
    def default_workers(monkeypatch):
        """The worker count a sweep without --workers hands to ``sweep``."""
        import splitfactor.cli
        from splitfactor import SweepSummary

        requested = []

        def fake_sweep(spec, workers=1):
            requested.append(workers)
            return SweepSummary(0, ())

        monkeypatch.delenv("SPLITFACTOR_THREADS", raising=False)
        monkeypatch.setattr(splitfactor.cli, "sweep", fake_sweep)
        assert main(["sweep", "--kmax", "2", "--imax", "2"]) == 0
        (workers,) = requested
        return workers

    def test_default_workers_are_usable_cores(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert self.default_workers(monkeypatch) == 1

    @pytest.mark.parametrize("cores, workers", [(3, 3), (None, 1)])
    def test_default_workers_without_affinity_are_cpu_count(self, monkeypatch, cores, workers):
        # platforms such as macOS and Windows have no os.sched_getaffinity
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        assert self.default_workers(monkeypatch) == workers

    def test_raising_instance_named_exit_2(self, capsys, monkeypatch):
        import splitfactor.verify
        from splitfactor import CorpusSpec, instance_id

        real = splitfactor.verify.verify_all
        bad = instance_id(CorpusSpec("exhaustive", 2, 2), 5)

        def flaky(S, instance=None):
            if instance == bad:
                raise ZeroDivisionError("boom")
            return real(S, instance=instance)

        monkeypatch.setattr(splitfactor.verify, "verify_all", flaky)
        assert main(["sweep", "--kmax", "2", "--imax", "2"]) == 2
        assert capsys.readouterr().out == (
            f"16 instances, 1 failures\n{bad}: CHECK internal-error FAIL ZeroDivisionError: boom\n"
        )

    @pytest.mark.parametrize("count, suppressed", [(50, False), (51, True)])
    def test_failure_lines_capped_at_50(self, capsys, monkeypatch, count, suppressed):
        import splitfactor.verify

        def broken(S, instance=None):
            raise ZeroDivisionError("boom")

        monkeypatch.setattr(splitfactor.verify, "verify_all", broken)
        argv = ["sweep", "--kmax", "2", "--imax", "2", "--mode", "random",
                "--count", str(count), "--workers", "1"]
        assert main(argv) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"{count} instances, {count} failures"
        assert len(lines) == 1 + 50 + suppressed
        assert all(line.endswith(": CHECK internal-error FAIL ZeroDivisionError: boom")
                   for line in lines[1:51])
        assert (lines[-1] == "... (more failures suppressed)") == suppressed

    def test_max_len_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--kmax", "2", "--imax", "2", "--max-len", "4"])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == "" and err.endswith(": error: unrecognized arguments: --max-len 4\n")

    def test_budget_error_exit_1(self, capsys):
        assert main(["sweep", "--kmax", "5", "--imax", "5"]) == 1
        assert "budget" in capsys.readouterr().err


class TestUsage:
    def test_no_arguments(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_non_integer_extremal_index(self):
        with pytest.raises(SystemExit) as exc:
            main(["extremal", "three"])
        assert exc.value.code == 1


def test_module_entry_point():
    # the child does not inherit pytest's sys.path, so hand it this checkout's package
    pythonpath = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "splitfactor.cli", "extremal", "3"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("K: x1 x2 x3\n")


def test_console_script_installed(tmp_path):
    """The console script pyproject declares reaches the CLI as a separate process.

    The launcher an installer would write is built from this checkout's
    `[project.scripts]` and put first on PATH, with the checkout's package
    directory first on PYTHONPATH, so the verdict does not depend on what
    is installed in the interpreter or elsewhere on PATH.
    """
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as f:
        pyproject = tomllib.load(f)
    module, attr = pyproject["project"]["scripts"]["splitfactor"].split(":")
    where = pyproject["tool"]["setuptools"]["packages"]["find"]["where"]

    launcher = tmp_path / "splitfactor"
    launcher.write_text(
        f"#!{sys.executable}\nimport sys\nfrom {module} import {attr}\nsys.exit({attr}())\n"
    )
    launcher.chmod(0o755)
    path = os.pathsep.join([str(tmp_path), os.environ.get("PATH", os.defpath)])
    pythonpath = [str(REPO / d) for d in where] + [os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PATH": path, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}

    exe = shutil.which("splitfactor", path=path)
    assert exe is not None and Path(exe) == launcher
    proc = subprocess.run([exe, "recognize", "/dev/null"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout == "K:\nI:\n"


@pytest.mark.skipif(shutil.which("splitfactor") is None, reason="splitfactor not installed on PATH")
def test_console_script_on_path():
    exe = shutil.which("splitfactor")
    assert exe is not None, "console script not on PATH"
    proc = subprocess.run([exe, "recognize", "/dev/null"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "K:\nI:\n"
