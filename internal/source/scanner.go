package source

import "fmt"

// Scanner converts a byte slice holding W2 source text into a token stream.
// It reports malformed input through the attached diagnostic bag and keeps
// scanning, so the parser always sees a well-terminated stream.
type Scanner struct {
	file  string
	src   []byte
	diags *DiagBag

	offset int // byte offset of ch
	next   int // byte offset after ch
	ch     rune
	line   int
	col    int
}

// NewScanner returns a scanner over src. Diagnostics for lexical errors are
// appended to diags, which must not be nil.
func NewScanner(file string, src []byte, diags *DiagBag) *Scanner {
	s := &Scanner{file: file, src: src, diags: diags, line: 1, col: 0}
	s.advance()
	return s
}

const eofRune = rune(-1)

// advance moves to the next input character. Only ASCII input is meaningful
// to the language; non-ASCII bytes are passed through one byte at a time and
// rejected by the token rules.
func (s *Scanner) advance() {
	if s.next >= len(s.src) {
		s.offset = len(s.src)
		s.ch = eofRune
		s.col++
		return
	}
	if s.ch == '\n' {
		s.line++
		s.col = 1
	} else {
		s.col++
	}
	s.offset = s.next
	s.ch = rune(s.src[s.next])
	s.next++
}

func (s *Scanner) pos() Pos {
	return Pos{File: s.file, Offset: s.offset, Line: s.line, Col: s.col}
}

func (s *Scanner) peek() rune {
	if s.next >= len(s.src) {
		return eofRune
	}
	return rune(s.src[s.next])
}

func isLetter(ch rune) bool {
	return 'a' <= ch && ch <= 'z' || 'A' <= ch && ch <= 'Z' || ch == '_'
}

func isDigit(ch rune) bool { return '0' <= ch && ch <= '9' }

// Next returns the next token, its literal text (for identifier, literal and
// comment tokens), and its starting position. At end of input it returns EOF
// forever.
func (s *Scanner) Next() (Token, string, Pos) {
	s.skipSpace()
	pos := s.pos()

	switch ch := s.ch; {
	case ch == eofRune:
		return EOF, "", pos
	case isLetter(ch):
		lit := s.scanIdent()
		return Lookup(lit), lit, pos
	case isDigit(ch):
		tok, lit := s.scanNumber()
		return tok, lit, pos
	case ch == '"':
		lit := s.scanString(pos)
		return STRING, lit, pos
	default:
		return s.scanOperator(pos)
	}
}

func (s *Scanner) skipSpace() {
	for {
		for s.ch == ' ' || s.ch == '\t' || s.ch == '\n' || s.ch == '\r' {
			s.advance()
		}
		if s.ch == '/' && s.peek() == '/' {
			for s.ch != '\n' && s.ch != eofRune {
				s.advance()
			}
			continue
		}
		if s.ch == '/' && s.peek() == '*' {
			open := s.pos()
			s.advance() // '/'
			s.advance() // '*'
			closed := false
			for s.ch != eofRune {
				if s.ch == '*' && s.peek() == '/' {
					s.advance()
					s.advance()
					closed = true
					break
				}
				s.advance()
			}
			if !closed {
				s.diags.Errorf(open, "unterminated block comment")
			}
			continue
		}
		return
	}
}

func (s *Scanner) scanIdent() string {
	start := s.offset
	for isLetter(s.ch) || isDigit(s.ch) {
		s.advance()
	}
	return string(s.src[start:s.offset])
}

func (s *Scanner) scanNumber() (Token, string) {
	start := s.offset
	tok := INT
	for isDigit(s.ch) {
		s.advance()
	}
	if s.ch == '.' && isDigit(s.peek()) {
		tok = FLOAT
		s.advance()
		for isDigit(s.ch) {
			s.advance()
		}
	}
	if s.ch == 'e' || s.ch == 'E' {
		tok = FLOAT
		s.advance()
		if s.ch == '+' || s.ch == '-' {
			s.advance()
		}
		if !isDigit(s.ch) {
			s.diags.Errorf(s.pos(), "malformed floating-point exponent")
		}
		for isDigit(s.ch) {
			s.advance()
		}
	}
	return tok, string(s.src[start:s.offset])
}

// scanString scans a double-quoted string literal and returns its unquoted
// contents. Only \" \\ \n \t escapes are recognized; strings are used solely
// for diagnostics in W2 programs, not computation.
func (s *Scanner) scanString(pos Pos) string {
	s.advance() // opening quote
	var out []byte
	for {
		switch s.ch {
		case eofRune, '\n':
			s.diags.Errorf(pos, "unterminated string literal")
			return string(out)
		case '"':
			s.advance()
			return string(out)
		case '\\':
			s.advance()
			switch s.ch {
			case '"':
				out = append(out, '"')
			case '\\':
				out = append(out, '\\')
			case 'n':
				out = append(out, '\n')
			case 't':
				out = append(out, '\t')
			default:
				s.diags.Errorf(s.pos(), "unknown escape sequence \\%c", s.ch)
			}
			s.advance()
		default:
			out = append(out, byte(s.ch))
			s.advance()
		}
	}
}

func (s *Scanner) scanOperator(pos Pos) (Token, string, Pos) {
	ch := s.ch
	s.advance()

	// two-character operators
	two := func(next rune, long, short Token) (Token, string, Pos) {
		if s.ch == next {
			s.advance()
			return long, "", pos
		}
		return short, "", pos
	}

	switch ch {
	case '+':
		return ADD, "", pos
	case '-':
		return SUB, "", pos
	case '*':
		return MUL, "", pos
	case '/':
		return QUO, "", pos
	case '%':
		return REM, "", pos
	case '=':
		return two('=', EQL, ASSIGN)
	case '!':
		return two('=', NEQ, NOT)
	case '<':
		return two('=', LEQ, LSS)
	case '>':
		return two('=', GEQ, GTR)
	case '&':
		if s.ch == '&' {
			s.advance()
			return LAND, "", pos
		}
		s.diags.Errorf(pos, "unexpected character %q (did you mean &&?)", ch)
		return ILLEGAL, string(ch), pos
	case '|':
		if s.ch == '|' {
			s.advance()
			return LOR, "", pos
		}
		s.diags.Errorf(pos, "unexpected character %q (did you mean ||?)", ch)
		return ILLEGAL, string(ch), pos
	case '(':
		return LPAREN, "", pos
	case ')':
		return RPAREN, "", pos
	case '[':
		return LBRACK, "", pos
	case ']':
		return RBRACK, "", pos
	case '{':
		return LBRACE, "", pos
	case '}':
		return RBRACE, "", pos
	case ',':
		return COMMA, "", pos
	case ';':
		return SEMICOLON, "", pos
	case ':':
		return COLON, "", pos
	}
	s.diags.Errorf(pos, "unexpected character %q", ch)
	return ILLEGAL, string(ch), pos
}

// ScanAll tokenizes src completely and returns the tokens including the
// final EOF. It is a convenience for tests and tools.
func ScanAll(file string, src []byte, diags *DiagBag) []ScannedToken {
	s := NewScanner(file, src, diags)
	var out []ScannedToken
	for {
		tok, lit, pos := s.Next()
		out = append(out, ScannedToken{Tok: tok, Lit: lit, Pos: pos})
		if tok == EOF {
			return out
		}
	}
}

// ScannedToken is one element of the output of ScanAll.
type ScannedToken struct {
	Tok Token
	Lit string
	Pos Pos
}

func (t ScannedToken) String() string {
	if t.Lit != "" {
		return fmt.Sprintf("%s(%s)", t.Tok, t.Lit)
	}
	return t.Tok.String()
}
