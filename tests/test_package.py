"""The package root's public names and import footprint."""

import os
import subprocess
import sys

import graphdict


def test_every_public_name_resolves():
    missing = [name for name in graphdict.__all__
               if not hasattr(graphdict, name)]
    assert not missing
    assert len(set(graphdict.__all__)) == len(graphdict.__all__)


def test_importing_every_module_loads_no_scipy():
    # scipy is a test-only dependency: only the oracle tests compare to it
    code = ("import importlib, pkgutil, sys, graphdict\n"
            "for module in pkgutil.iter_modules(graphdict.__path__):\n"
            "    importlib.import_module(f'graphdict.{module.name}')\n"
            "print(sorted(name for name in sys.modules\n"
            "             if name.partition('.')[0] == 'scipy'))\n")
    root = os.path.dirname(os.path.dirname(graphdict.__file__))
    path = [root, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
