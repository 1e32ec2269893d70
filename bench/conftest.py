import sys
from pathlib import Path

# The benchmark imports lhc from this checkout's src/, as bench/run.py does.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
