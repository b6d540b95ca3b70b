import re
from pathlib import Path

from neat import errors


def test_every_error_class_is_used():
    """A NeatError subclass that no other module names is dead code."""
    package = Path(errors.__file__).parent
    others = "\n".join(p.read_text() for p in sorted(package.glob("*.py"))
                       if p.name != "errors.py")
    classes = [name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, errors.NeatError)
               and obj is not errors.NeatError]
    assert classes
    unused = [name for name in classes if not re.search(rf"\b{name}\b", others)]
    assert unused == []
