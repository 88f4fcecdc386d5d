"""What the package reads from its platform: the CPUs this process may use,
which size every fan-out (the Bessel kernel's threads, the sweep's pool), and
scipy's compiled extensions without any scipy package: importing `scipy.linalg`
or `scipy.special` costs more than the rest of a cold run, and a verb needs one
routine of one extension that itself needs only numpy (LAPACK's pttrf/pttrs in
`linalg._flapack`, the Bessel functions in `special._special_ufuncs`)."""

from __future__ import annotations

import importlib
import importlib.util
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader


def cpu_count() -> int:
    """The CPUs this process may run on: its affinity (`taskset`) where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def scipy_extension(name: str):
    """The module `scipy.<name>`, for `name` an extension such as
    "linalg._flapack": loaded from its file under its scipy name, after
    `importlib.util.find_spec` locates scipy (which imports nothing), and left
    in `sys.modules`, so that a later import of its package reuses it. By a
    plain import when the extension cannot be found or loaded."""
    full = "scipy." + name
    module = sys.modules.get(full)
    scipy = importlib.util.find_spec("scipy") if module is None else None
    roots = scipy.submodule_search_locations if scipy is not None else None
    paths = (os.path.join(root, *name.split(".")) + suffix
             for root in roots or () for suffix in EXTENSION_SUFFIXES)
    path = next(filter(os.path.isfile, paths), None)
    if path is not None:
        loader = ExtensionFileLoader(full, path)
        spec = importlib.util.spec_from_file_location(full, path, loader=loader)
        try:
            module = importlib.util.module_from_spec(spec)
            loader.exec_module(module)
        except ImportError:
            module = None
        else:  # as an import would, so that the package takes this module
            sys.modules[full] = module
    return module if module is not None else importlib.import_module(full)
