"""Print the sha256 of every artifact of a fixed set of `allg` runs.

Usage: python tests/byte_identity.py DIR [SRC]

DIR must be new or empty; the fixture, the config and all outputs are
written there.  SRC is the `src` directory whose `allg` runs (default: the
one next to this script), so two checkouts are compared with

    python tests/byte_identity.py new > new.txt
    python tests/byte_identity.py old path/to/other/checkout/src > old.txt
    diff old.txt new.txt

Every command runs inside DIR with relative paths, so `run.json` records
no checkout path, and at OPENBLAS_NUM_THREADS=1, where the artifacts are
byte-identical run to run.  The output is one `sha256  path` line per file,
sorted by path: evaluate, grid, ablate and select on a 90-row blobs pool,
plus the stdout of `allg gradcheck`.  Each `.npz` file is followed by one
`sha256  path:member` line per member, in archive order, so a diff shows
which arrays (or only `__meta__`) changed.  A second select run,
`select_block`, names the dataset only through its config file's `dataset`
block, with the label as column index "5"; the script fails unless its
files hash the same as `select`'s.
"""

import hashlib
import json
import os
import subprocess
import sys
import zipfile

CONFIG = {
    "schema_version": 1,
    "model": {"pretrain_epochs": 20, "train_epochs": 25, "knn_k": 4, "prior_normalize": "col"},
    "protocol": {"budgets": [6, 12, 18], "runs": 2, "svm_sweeps": 30, "logreg_max_iter": 100},
    "grid": {"alpha": [0.1, 10.0], "beta": [1.0], "lambda": [0.1, 10.0]},
}
# The fixture's five features are columns 0-4 and its label is column 5.
BLOCK_CONFIG = {**CONFIG, "dataset": {"path": "data.csv", "label_column": "5"}}
COMMON = ["--config", "cfg.json", "--dataset", "data.csv", "--label-column", "label",
          "--seed", "3"]
RUNS = [
    ["evaluate", *COMMON, "--selector", "random,kmeans,dcs,allg", "--out", "eval"],
    ["grid", *COMMON, "--out", "grid"],
    ["ablate", *COMMON, "--out", "ablate"],
    ["select", *COMMON, "--out", "select"],
    ["select", "--config", "cfg_block.json", "--seed", "3", "--out", "select_block"],
]
FIXTURE = ("import allg; "
           "allg.save_csv(allg.make_blobs(30, 3, d=5, spread=1.5, seed=6), 'data.csv')")


def _run(argv, cwd, env) -> str:
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def main(argv) -> int:
    if len(argv) not in (1, 2):
        sys.exit(__doc__.split("\n\n")[1])
    work = os.path.abspath(argv[0])
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.abspath(argv[1] if len(argv) == 2 else os.path.join(here, "..", "src"))
    os.makedirs(work, exist_ok=True)
    if os.listdir(work):
        sys.exit(f"{work} is not empty")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    _run(["-c", FIXTURE], work, env)
    for name, cfg in (("cfg.json", CONFIG), ("cfg_block.json", BLOCK_CONFIG)):
        with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
    for run in RUNS:
        _run(["-m", "allg", *run], work, env)
    with open(os.path.join(work, "gradcheck.stdout"), "w", encoding="utf-8") as fh:
        fh.write(_run(["-m", "allg", "gradcheck"], work, env))
    paths = sorted(os.path.relpath(os.path.join(root, name), work)
                   for root, _, names in os.walk(work) for name in names)
    digests = {}
    for path in paths:
        with open(os.path.join(work, path), "rb") as fh:
            digests[path] = hashlib.sha256(fh.read()).hexdigest()
        print(f"{digests[path]}  {path}")
        if path.endswith(".npz"):
            with zipfile.ZipFile(os.path.join(work, path)) as archive:
                for name in archive.namelist():
                    digest = hashlib.sha256(archive.read(name)).hexdigest()
                    print(f"{digest}  {path}:{name.removesuffix('.npy')}")
    for name in os.listdir(os.path.join(work, "select")):
        if digests[os.path.join("select", name)] != digests.get(os.path.join("select_block", name)):
            sys.exit(f"select_block/{name} differs from select/{name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
