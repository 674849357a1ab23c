import os
import re
import subprocess
import sys
import zipfile

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_DIRS = ("eval", "grid", "ablate", "select", "select_block")


def test_script_lists_every_artifact(tmp_path):
    # the hashes depend on the BLAS build, so only the listing is checked: one
    # line per file and per .npz member, and the script's own exit status, which
    # includes its select_block == select check
    work = tmp_path / "work"
    proc = subprocess.run([sys.executable, os.path.join(HERE, "byte_identity.py"), str(work),
                           os.path.join(HERE, "..", "src")], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
    listed = [line.split("  ", 1)[1] for line in lines]
    files = sorted(os.path.relpath(os.path.join(root, name), work)
                   for root, _, names in os.walk(work) for name in names)
    assert "gradcheck.stdout" in files
    for run in RUN_DIRS:
        assert any(path.startswith(run + os.sep) for path in files), run
    want = []
    for path in files:
        want.append(path)
        if path.endswith(".npz"):
            with zipfile.ZipFile(work / path) as archive:
                want += [f"{path}:{name.removesuffix('.npy')}" for name in archive.namelist()]
    assert listed == want
