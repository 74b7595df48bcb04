import pytest

from bigdiff import rates as rt


@pytest.fixture
def sweep():
    """Run a sweep as the CLI does: open a run under `out_root` and fill it.

    Returns (fit, record), with the record closed.
    """
    def run(cfg, out_root):
        with rt.open_run(out_root, cfg.quantity, cfg.seed) as record:
            fit = rt.run_sweep(cfg, record)
        return fit, record

    return run
