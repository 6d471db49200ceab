import inspect
import pathlib

import subsing
from subsing import rng

# spellings that build a generator
GENERATOR_MAKERS = ("default_rng", "SeedSequence", "Generator(")


def test_every_generator_comes_from_stream():
    # rng.py alone may build a Generator, and stream is its only function
    # that returns one; every other module calls stream
    for module in sorted(pathlib.Path(subsing.__file__).parent.glob("*.py")):
        if module.name == "rng.py":
            continue
        text = module.read_text()
        assert not [w for w in GENERATOR_MAKERS if w in text], module.name
    makers = [name for name, f in inspect.getmembers(rng, inspect.isfunction)
              if f.__annotations__.get("return") == "np.random.Generator"]
    assert makers == ["stream"]
