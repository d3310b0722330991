import pointdamp
from pointdamp import carleman, characteristic, decayfit, diophantine, frequency, mesh, simulator


def test_package_exports_are_the_submodule_exports():
    modules = (mesh, diophantine, characteristic, frequency, carleman, simulator, decayfit)
    union = {name for module in modules for name in module.__all__}
    assert set(pointdamp.__all__) == union | {"__version__"}
    assert len(pointdamp.__all__) == len(set(pointdamp.__all__))
    for name in pointdamp.__all__:
        assert hasattr(pointdamp, name), name
