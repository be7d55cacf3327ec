"""``python -m ringlab``: the ``ringlab`` command line."""

from .cli import run

if __name__ == "__main__":
    run()
