import sys
from pathlib import Path

# The benchmark's modules are scripts beside run.py, not a package.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
