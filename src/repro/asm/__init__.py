"""Textual assembler for TAL_FT programs."""

from repro.asm.lexer import Token, TokenStream, tokenize
from repro.asm.emitter import emit_tal, render_expr
from repro.asm.parser import assemble_file, parse_program

__all__ = [
    "Token",
    "TokenStream",
    "assemble_file",
    "emit_tal",
    "parse_program",
    "render_expr",
    "tokenize",
]
