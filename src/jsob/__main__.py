import gc

from .cli import main


def run() -> int:
    """The ``jsob`` and ``python -m jsob`` entry point: main, then ``gc.freeze``, so
    the collection at exit has nothing to scan (not in main, which tests call)."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(run())
