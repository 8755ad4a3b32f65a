"""Bundled data files: the 4-period worked-example instance and a ready
benchmark configuration for the stationary/random 8-period slices."""
from importlib import resources
from pathlib import Path


def bundled(name: str) -> Path:
    """Filesystem path of a bundled data file (e.g. 'example4.json')."""
    path = resources.files(__package__).joinpath(name)
    if not path.is_file():
        raise FileNotFoundError(f"no bundled data file named {name!r}")
    return Path(str(path))
