import subprocess
import sys
from pathlib import Path

ROWDIFF = Path(__file__).resolve().parent.parent / "tools" / "rowdiff.py"
HEADER = "formula_id,q,target,measured,bound,margin,applicable,verdict\n"


def rowdiff(tmp_path, old: str, new: str) -> tuple[int, list[str]]:
    (tmp_path / "old.csv").write_text(HEADER + old)
    (tmp_path / "new.csv").write_text(HEADER + new)
    argv = [sys.executable, str(ROWDIFF), str(tmp_path / "old.csv"), str(tmp_path / "new.csv")]
    done = subprocess.run(argv, capture_output=True, text=True)
    return done.returncode, done.stdout.splitlines()


def test_same_rows_with_moved_cells_exit_0(tmp_path):
    # a quoted target with a comma stays one key
    old = 'fejer,0,"W(1,alpha=1)-closed-form",2.0,1e-10,1.0,true,pass\ncor12,5,qnr,2,4.0,2.0,true,pass\n'
    new = 'fejer,0,"W(1,alpha=1)-closed-form",2.5,1e-10,1.0,true,pass\ncor12,5,qnr,2,4.0,2.0,true,pass\n'
    code, lines = rowdiff(tmp_path, old, new)
    assert code == 0
    assert lines == ["moved fejer measured: 1 cells, largest relative change 0.25"]


def test_identical_files_move_no_cell(tmp_path):
    rows = "cor12,5,qnr,2,4.0,2.0,true,pass\n"
    assert rowdiff(tmp_path, rows, rows) == (0, ["no cell moved"])


def test_missing_and_repeated_keys_exit_1(tmp_path):
    old = "a,0,x,1.0,2.0,1.0,true,pass\na,0,x,1.0,2.0,1.0,true,pass\nb,0,y,0.0,1.0,1.0,true,pass\n"
    new = "a,0,x,1.0,2.0,1.0,true,fail\nc,0,z,1.0,2.0,1.0,true,pass\n"
    code, lines = rowdiff(tmp_path, old, new)
    assert code == 1
    assert f"only in {tmp_path / 'old.csv'}: b,0,y" in lines
    assert f"only in {tmp_path / 'new.csv'}: c,0,z" in lines
    assert f"repeated in {tmp_path / 'old.csv'} (2x): a,0,x" in lines
    assert "moved a verdict: 1 cells, largest relative change -" in lines
