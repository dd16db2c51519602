"""The command-line workflow, scripted: synth -> validate -> run.

Drives the `affectpipe` CLI entry points directly (same code paths as the
installed console script) against the bundled configs: generates the
binary-stress dataset, validates the tree it wrote, runs the 5-fold
questionnaire pipeline, and shows the machine-readable report it emits.

Equivalent shell session:
    affectpipe synth configs/synth-binary.yaml data/binary
    affectpipe validate data/binary
    affectpipe run configs/questionnaire-kfold.yaml --out out/questionnaire

Run with:  python3 demos/04_cli_workflow.py
"""

import os
import tempfile
from pathlib import Path

from affectpipe.cli import cmd_run, cmd_synth, cmd_validate

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def main():
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="affectpipe-cli-demo-") as tmp:
        work = Path(tmp)
        # the run config addresses the dataset as data/binary relative to cwd
        os.chdir(work)
        try:
            print("== synth ==")
            rc = cmd_synth(str(CONFIGS / "synth-binary.yaml"),
                           str(work / "data/binary"))
            assert rc == 0, f"synth exited {rc}"

            print("\n== validate ==")
            rc = cmd_validate(str(work / "data/binary"))
            assert rc == 0, f"validate exited {rc}"

            print("\n== run ==")
            rc = cmd_run(str(CONFIGS / "questionnaire-kfold.yaml"),
                         out_dir=str(work / "out"))
            assert rc == 0, f"run exited {rc}"

            print("\n== report.csv (first 10 lines) ==")
            lines = (work / "out" / "report.csv").read_text().splitlines()
            print("\n".join(lines[:10]))
            print(f"... {len(lines) - 10} more rows")
        finally:
            # leave the directory before it is removed
            os.chdir(home)


if __name__ == "__main__":
    main()
