import re
import types
from pathlib import Path

import qutritsim

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_package_root_holds_only_modules_and_the_version():
    # callers import the modules (from qutritsim import choi); the root
    # re-exports no function, class or constant
    names = [n for n in vars(qutritsim) if not n.startswith("__")]
    assert [n for n in names if not isinstance(getattr(qutritsim, n), types.ModuleType)] == []
    version = re.search(r'^version = "(.+)"$', PYPROJECT.read_text(), re.M).group(1)
    assert qutritsim.__version__ == version
