__version__ = "0.1.4"
