"""A small SQL frontend: parser, SQL-semantics evaluator, algebra compiler."""

from .lexer import SqlSyntaxError, Token, tokenize
from .parser import parse
from .evaluator import SqlEvaluator, run_sql
from .compiler import SqlCompilationError, compile_sql, compile_sql_3vl
from . import ast

__all__ = [
    "tokenize",
    "Token",
    "SqlSyntaxError",
    "parse",
    "SqlEvaluator",
    "run_sql",
    "compile_sql",
    "compile_sql_3vl",
    "SqlCompilationError",
    "ast",
]
