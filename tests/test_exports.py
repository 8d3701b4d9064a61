import importlib
import pkgutil

import msfourier


def test_every_exported_name_resolves():
    # a function moved or deleted without its __all__ entry leaves a stale export
    modules = [msfourier] + [
        importlib.import_module(f"msfourier.{info.name}")
        for info in pkgutil.iter_modules(msfourier.__path__)
    ]
    assert len(modules) > 1
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"


def test_package_exports_the_readme_names():
    # the eleven names the README lists for a user of recover and compare
    assert sorted(msfourier.__all__) == [
        "ComparisonReport", "FourierMode", "NoiseModel", "RecoveryConfig", "RecoveryResult",
        "SparseSpectrum", "compare", "evaluate_spectrum", "read_signal_file", "recover",
        "write_signal_file",
    ]
