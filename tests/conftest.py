import ctypes
from pathlib import Path

import numpy as np
import pytest

from safecert import (
    KernelSpec,
    SafeRegion,
    SynthSystemParams,
    default_kernel_spec,
    default_safe_region,
    extract_onestep_pairs,
    gen_dataset,
)


@pytest.fixture(scope="session")
def region() -> SafeRegion:
    return default_safe_region()


@pytest.fixture(scope="session")
def markov_params() -> SynthSystemParams:
    return SynthSystemParams(alpha=0.0)


@pytest.fixture(scope="session")
def small_trajs(markov_params, region):
    return gen_dataset(markov_params, region, n=80, T=5, seed=11)


@pytest.fixture(scope="session")
def small_pairs(markov_params, region):
    return extract_onestep_pairs(
        None, 400, "iid", 11, params=markov_params, region=region
    )


@pytest.fixture(scope="session")
def desk_pairs(markov_params, region):
    """M = 4500 iid pairs on the box: the acceptance desk scale, where the
    pivoted rank of the tuned T = 15 dp kernel over [x; x+] (about 510)
    stays under M / 8 and the ridge system takes the low-rank path."""
    return extract_onestep_pairs(None, 4500, "iid", 1, params=markov_params, region=region)


@pytest.fixture(scope="session")
def desk_spec() -> KernelSpec:
    return default_kernel_spec("dp", 15)


@pytest.fixture(scope="session")
def dp_spec() -> KernelSpec:
    return KernelSpec.from_variances((0.596, 0.361), 1.456e-6)


@pytest.fixture(scope="session")
def direct_spec() -> KernelSpec:
    return KernelSpec.from_variances((0.772, 1.572), 3.004e-8)


def openblas() -> list:
    """(path, get, set) of the thread count of numpy's and then scipy's
    bundled OpenBLAS; (None, None, None) for one that is not installed."""
    site = Path(np.__file__).parent.parent
    found = []
    for pattern, suffix in (("numpy.libs/libscipy_openblas64_*.so", "64_"),
                            ("scipy.libs/libscipy_openblas*.so", "")):
        libs = sorted(site.glob(pattern))
        if not libs:
            found.append((None, None, None))
            continue
        lib = ctypes.CDLL(str(libs[0]))
        get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
        get.argtypes, get.restype = [], ctypes.c_int
        set_threads = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        found.append((libs[0], get, set_threads))
    return found


@pytest.fixture()
def one_blas_thread():
    """One thread in each bundled OpenBLAS for the test, as in a pool worker
    or a benchmark pass, and the counts restored after it.  A product's last
    bits depend on how OpenBLAS splits it between threads, so a test of
    exact bytes takes this; skipped where those builds are not installed."""
    libs = openblas()
    if not all(lib for lib, _, _ in libs):
        pytest.skip("numpy's and scipy's bundled OpenBLAS builds are not installed")
    before = [get() for _, get, _ in libs]
    for _, _, set_threads in libs:
        set_threads(1)
    yield
    for (_, _, set_threads), count in zip(libs, before):
        set_threads(count)
