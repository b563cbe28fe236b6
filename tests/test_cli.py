import importlib.util
import os
import re
import subprocess
import sys

import pytest

import quasigrade
from quasigrade import _kernels, cli, hilbert, polytope

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

SQUARE = """ambient 2
vertices 4
0 0
1 0
0 1
1 1
"""

HALFSEG = """ambient 1
vertices 2
0
1/2
"""

TRI_HALF = """ambient 2
vertices 3
0 0
1/2 0
0 1/2
"""


@pytest.fixture()
def square_file(tmp_path):
    path = tmp_path / "square.poly"
    path.write_text(SQUARE)
    return str(path)


@pytest.fixture()
def halfseg_file(tmp_path):
    path = tmp_path / "halfseg.poly"
    path.write_text(HALFSEG)
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_ehrhart_square(capsys, square_file):
    code, out = run(capsys, "ehrhart", square_file)
    assert code == 0
    assert out == "period=1 degree=2\n0: 1 2 1\n"


def test_ehrhart_max_dilate(capsys, square_file):
    code, out = run(capsys, "ehrhart", square_file, "--max-dilate", "3")
    assert code == 0
    assert out.splitlines()[-3:] == [
        "count n=1 value=4",
        "count n=2 value=9",
        "count n=3 value=16",
    ]


def test_max_dilate_counts_each_dilate_once(capsys, monkeypatch, square_file):
    # The fit and the held-out check count n = 1..4 for the square in one
    # batch; the printed counts reuse them and count only n = 5, 6, in a
    # second batch.
    made = []
    counts = polytope.dilate_counts

    def recording(p, ns):
        made.append(list(ns))
        return counts(p, ns)

    monkeypatch.setattr(polytope, "dilate_counts", recording)
    code, out = run(capsys, "ehrhart", square_file, "--max-dilate", "6")
    assert code == 0
    assert out.splitlines()[2:] == [f"count n={n} value={(n + 1) ** 2}" for n in range(1, 7)]
    assert made == [[1, 2, 3, 4], [5, 6]]


def test_verify_polytope_halfseg(capsys, halfseg_file):
    code, out = run(capsys, "verify-polytope", halfseg_file)
    assert code == 0
    lines = out.splitlines()
    assert "grade=0" in lines
    assert "delta_star=1" in lines
    assert "holds=true" in lines


def test_faces_command(capsys, halfseg_file):
    code, out = run(capsys, "faces", halfseg_file)
    assert code == 0
    assert out.splitlines() == [
        "vertex 0: 0",
        "vertex 1: 1/2",
        "face dim=0 vertices=0 span_lattice=true",
        "face dim=0 vertices=1 span_lattice=false",
        "face dim=1 vertices=0,1 span_lattice=true",
    ]


def test_hilbert_command(capsys):
    code, out = run(capsys, "hilbert", "--weights", "1,2")
    assert code == 0
    assert out == "period=2 degree=1\n0: 1/2 1\n1: 1/2 1/2\nn0=0\n"


def test_hilbert_with_numerator(capsys):
    code, out = run(capsys, "hilbert", "--weights", "1", "--numerator", "1,1")
    assert code == 0
    assert out.splitlines()[0:2] == ["period=1 degree=0", "0: 2"]


def test_negative_numerator_after_a_space(capsys):
    # A numerator led by a negative coefficient is a value, not an unknown
    # option, whether it follows "--numerator" or "--numerator=".
    code, spaced = run(capsys, "hilbert", "--weights", "1,1,2", "--numerator", "-1,3")
    assert code == 0
    assert run(capsys, "hilbert", "--weights", "1,1,2", "--numerator=-1,3") == (0, spaced)
    assert spaced.splitlines()[1] == "0: 1/2 1/2 -1"
    for bad in ("-1,x", "1,x"):
        assert cli.main(["hilbert", "--weights", "1,1,2", "--numerator", bad]) == 2
        assert capsys.readouterr().err == "error: --numerator must be a comma-separated integer list\n"


def test_parser_is_built_once_and_keeps_no_state(capsys, square_file):
    code, out = run(capsys, "ehrhart", square_file, "--max-dilate", "3")
    assert code == 0
    assert out.count("count n=") == 3
    parser = cli._parser
    code, out = run(capsys, "ehrhart", square_file)
    assert (code, out) == (0, "period=1 degree=2\n0: 1 2 1\n")
    assert cli._parser is parser


def test_parser_error_then_valid_call(capsys, square_file):
    with pytest.raises(SystemExit) as err:
        cli.main(["ehrhart", square_file, "--max-dilate", "x"])
    assert err.value.code == 2
    assert "invalid int value: 'x'" in capsys.readouterr().err
    code, out = run(capsys, "ehrhart", square_file, "--max-dilate", "1")
    assert (code, out) == (0, "period=1 degree=2\n0: 1 2 1\ncount n=1 value=4\n")


def test_verify_weighted(capsys):
    code, out = run(capsys, "verify-weighted", "--weights", "2,2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "grade=1"
    assert lines[1] == "bound=2"
    assert lines[2] == "period=2"
    assert lines[3] == "holds=true"


def test_qp_grade(capsys, tmp_path):
    path = tmp_path / "half.qp"
    path.write_text("period=4 degree=1\n0: 1/2 1\n1: 1/2 1/2\n2: 1/2 1\n3: 1/2 1/2\n")
    code, out = run(capsys, "qp-grade", str(path))
    assert code == 0
    assert out.splitlines()[:3] == ["grade=0", "period=2", "period=2 degree=1"]


def test_random_suites_small(capsys):
    for mode, count in (("weighted", 10), ("polytope", 5), ("lemma", 25)):
        code, out = run(capsys, "random-suite", "--mode", mode, "--seed", "1", "--count", str(count))
        assert code == 0
        assert out == f"checked={count} violations=0\n"


def test_deterministic_output(capsys, tmp_path):
    path = tmp_path / "tri.poly"
    path.write_text(TRI_HALF)
    _, first = run(capsys, "verify-polytope", str(path))
    _, second = run(capsys, "verify-polytope", str(path))
    assert first == second


def test_missing_file_exits_2(capsys, tmp_path):
    code = cli.main(["ehrhart", str(tmp_path / "nope.poly")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_malformed_file_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.poly"
    path.write_text("ambient 2\nvertices 1\n0\n")
    code = cli.main(["ehrhart", str(path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_disagreeing_blocks_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.poly"
    path.write_text(SQUARE + "inequalities 1\n1 0 2\n")
    code = cli.main(["verify-polytope", str(path)])
    assert code == 2


def test_unbounded_hrep_exits_2(capsys, tmp_path):
    path = tmp_path / "open.poly"
    path.write_text("ambient 1\ninequalities 1\n-1 0\n")
    code = cli.main(["ehrhart", str(path)])
    assert code == 2


def test_unknown_flag_rejected(square_file):
    with pytest.raises(SystemExit) as err:
        cli.main(["ehrhart", square_file, "--wat"])
    assert err.value.code == 2


def test_bad_weights_exit_2(capsys):
    assert cli.main(["hilbert", "--weights", "1,x"]) == 2
    assert cli.main(["hilbert", "--weights", "0"]) == 2
    assert cli.main(["hilbert", "--weights", "1", "--numerator", "1,x"]) == 2
    assert cli.main(["verify-weighted", "--weights", "2", "--shifts", "-1"]) == 2
    capsys.readouterr()


def test_negative_max_dilate_exits_2(capsys, square_file):
    assert cli.main(["ehrhart", square_file, "--max-dilate", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --max-dilate must be >= 0\n"
    assert captured.out == ""
    code, out = run(capsys, "ehrhart", square_file, "--max-dilate", "0")
    assert code == 0
    assert out == "period=1 degree=2\n0: 1 2 1\n"


def test_negative_count_exits_2(capsys):
    assert cli.main(["random-suite", "--mode", "lemma", "--seed", "1", "--count", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --count must be >= 0\n"
    assert captured.out == ""
    code, out = run(capsys, "random-suite", "--mode", "lemma", "--seed", "1", "--count", "0")
    assert code == 0
    assert out == "checked=0 violations=0\n"


def _tightened(hrep):
    def tightened(points):
        ineqs, eqs = hrep(points)
        return tuple((a, b - 1) for a, b in ineqs), eqs

    return tightened


def _corrupted(index):
    def wrap(values_of):
        def corrupted(*args):
            values = values_of(*args)
            values[index] += 1
            return values

        return corrupted

    return wrap


@pytest.mark.parametrize(
    "module, name, wrap, argv, err",
    [
        # A hull whose facet rows are all tightened by one cuts off the input
        # points, so the hull self-check in construction trips its assertion.
        (polytope, "hrep_from_vrep", _tightened, ["verify-polytope", "{square}"],
         r"error: internal: point violates its own hull\n"),
        # One wrong series coefficient (n = 5, in the fitted window of period
        # 6) or dilate count (n = 4, the surplus count of the square) makes
        # the fit fail its surplus check.
        (hilbert, "series_coefficients", _corrupted(5), ["verify-weighted", "--weights", "1,2,3"],
         r"error: inconsistent fit: [^\n]*\n"),
        (polytope, "dilate_counts", _corrupted(3), ["ehrhart", "{square}"],
         r"error: inconsistent fit: [^\n]*\n"),
    ],
    ids=["hull", "hilbert-fit", "ehrhart-fit"],
)
def test_internal_assertion_exits_1(capsys, monkeypatch, square_file, module, name, wrap, argv, err):
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    code = cli.main([arg.format(square=square_file) for arg in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert re.fullmatch(err, captured.err), captured.err
    assert captured.out == ""


def test_out_of_memory_exits_2(capsys, monkeypatch):
    # The series of weights 100000, 99999 runs to about 10^10 terms.  The
    # expansion is replaced by one that fails at once, so nothing large is
    # allocated.
    def exhausted(hs, upto):
        raise MemoryError

    monkeypatch.setattr(hilbert, "series_coefficients", exhausted)
    assert cli.main(["hilbert", "--weights", "100000,99999"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: out of memory\n"
    assert captured.out == ""


def _start(*argv):
    src = os.path.dirname(os.path.dirname(quasigrade.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.Popen([sys.executable, "-m", "quasigrade", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def test_closed_stdout_exits_0_quietly():
    # The reader goes away before the first write, as `| head -1` does
    # after one line of this 27 kB report.
    proc = _start("verify-weighted", "--weights", "5,6,7,8", "--shifts", "0,3")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_unreadable_input_exits_2_in_a_process(tmp_path):
    proc = _start("ehrhart", str(tmp_path / "nope.poly"))
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert out == b""
    assert err.startswith(b"error: [Errno 2]")


def test_benchmark_worker_starts_and_tracer_installs(square):
    # The benchmark's worker makes a first count_box call before it prints
    # "ready", and its traced run rebinds the package's functions by name at
    # every import site; a refactor that breaks either fails here.
    worker = [sys.executable, os.path.join(PERFBENCH, "worker.py"), "--root", os.path.dirname(PERFBENCH),
              "--workload", "planar-verify", "--seed", "1", "--seconds", "1", "--probe"]
    proc = subprocess.run(worker, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "ready\n"), proc.stderr
    spec = importlib.util.spec_from_file_location("spans", os.path.join(PERFBENCH, "spans.py"))
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install(quasigrade.__name__, _kernels.active_backend())
        assert polytope.count_lattice_points(square, 2) == 9
        assert tracer.calls["kernels.count_box"] == 1
        assert tracer.counters["kernels.count_box.lattice_points"] == 9
    finally:
        tracer.uninstall()
    assert polytope.count_box is _kernels.count_box
