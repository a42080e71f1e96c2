"""The package runs on numpy and the standard library: scipy is only the
tests' oracle. Each check runs in a fresh interpreter, because the test
process itself has imported scipy."""

import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_python(code, cwd):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)


def test_importing_every_module_loads_no_scipy(tmp_path):
    proc = run_python("""
        import importlib, pkgutil, sys
        import ssdiffmri
        names = [m.name for m in pkgutil.walk_packages(ssdiffmri.__path__, "ssdiffmri.")]
        for name in names:
            importlib.import_module(name)
        assert "ssdiffmri.stats" in names and "ssdiffmri.cli" in names, names
        print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
    """, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_chain_runs_with_scipy_unimportable(tmp_path):
    # None in sys.modules makes every `import scipy...` raise ImportError
    proc = run_python("""
        import sys
        sys.modules["scipy"] = None
        from ssdiffmri.cli import run
        chain = [
            ["phantom", "--n", "4", "--size", "32", "--coils", "2", "--seed", "1",
             "--out", "data"],
            ["undersample", "--data", "data", "--seed", "2", "--out", "us"],
            ["train", "--data", "us", "--out", "run", "--max-steps", "2",
             "--hidden", "4", "--disc-width", "4", "--batch-size", "2", "--seed", "3"],
            ["recon", "--data", "us", "--run", "run", "--seed", "4", "--out", "rec"],
            ["zerofill", "--data", "us", "--out", "zf"],
            ["eval", "--recon", "rec", "--truth", "data", "--method", "model",
             "--n-boot", "200", "--out", "ev"],
            ["eval", "--recon", "zf", "--truth", "data", "--method", "zf",
             "--n-boot", "200", "--out", "ev"],
            ["stats", "ev/model.metrics.csv", "ev/zf.metrics.csv", "--out", "st"],
        ]
        for argv in chain:
            code = run(argv)
            print(argv[0], code)
            assert code == 0, argv
    """, tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert (tmp_path / "st" / "tests.json").is_file()
