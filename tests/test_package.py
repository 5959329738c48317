import types

import spinnet


def test_the_package_exports_its_version_and_no_other_name():
    """Each name has one import path, its module: the package re-exports none."""
    assert spinnet.__version__ == "0.1.0"
    public = {name: value for name, value in vars(spinnet).items() if not name.startswith("_")}
    # importing a submodule binds it on the package; nothing else may be bound
    assert all(isinstance(value, types.ModuleType) and value.__name__ == f"spinnet.{name}"
               for name, value in public.items()), sorted(public)
    assert not hasattr(spinnet, "__all__")
