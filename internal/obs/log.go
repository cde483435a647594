package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Level orders log severities. The zero value is LevelDebug; daemons
// default to LevelInfo via the -log-level flag.
type Level int32

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the level's lowercase name.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	}
	return fmt.Sprintf("level(%d)", int32(l))
}

// ParseLevel parses a -log-level flag value.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug, nil
	case "info", "":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return LevelInfo, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", s)
}

// logCore is the shared sink behind a Logger tree: one writer, one
// level, one mutex — Component/With derive cheap views over it.
type logCore struct {
	mu    sync.Mutex
	w     io.Writer
	level atomic.Int32
	// now is the clock; tests may pin it for deterministic output.
	now func() time.Time
}

// Logger writes leveled key=value lines:
//
//	ts=2026-08-07T12:00:00.000Z level=info component=service msg="run done" run=r000001
//
// A nil *Logger is valid and silent, so call sites need no nil checks
// — the daemon's default until -log-level wires a real one.
type Logger struct {
	core      *logCore
	component string
}

// NewLogger builds a logger writing to w at the given level.
func NewLogger(w io.Writer, level Level) *Logger {
	c := &logCore{w: w, now: time.Now}
	c.level.Store(int32(level))
	return &Logger{core: c}
}

// SetClock pins the logger's timestamp source (tests).
func (l *Logger) SetClock(now func() time.Time) {
	if l != nil && l.core != nil {
		l.core.now = now
	}
}

// Enabled reports whether the level would be written.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && l.core != nil && level >= Level(l.core.level.Load())
}

// Component derives a logger stamping component=name on every line.
func (l *Logger) Component(name string) *Logger {
	if l == nil {
		return nil
	}
	return &Logger{core: l.core, component: name}
}

// Debug/Info/Warn write one line at their level. kv are alternating
// keys and values appended after msg.
func (l *Logger) Debug(msg string, kv ...any) { l.log(LevelDebug, msg, kv) }
func (l *Logger) Info(msg string, kv ...any)  { l.log(LevelInfo, msg, kv) }
func (l *Logger) Warn(msg string, kv ...any)  { l.log(LevelWarn, msg, kv) }

func (l *Logger) log(level Level, msg string, kv []any) {
	if !l.Enabled(level) {
		return
	}
	var sb strings.Builder
	sb.Grow(128)
	sb.WriteString("ts=")
	sb.WriteString(l.core.now().UTC().Format("2006-01-02T15:04:05.000Z"))
	sb.WriteString(" level=")
	sb.WriteString(level.String())
	if l.component != "" {
		sb.WriteString(" component=")
		sb.WriteString(quoteIfNeeded(l.component))
	}
	sb.WriteString(" msg=")
	sb.WriteString(quoteIfNeeded(msg))
	appendKV(&sb, kv)
	sb.WriteByte('\n')
	l.core.mu.Lock()
	_, _ = io.WriteString(l.core.w, sb.String())
	l.core.mu.Unlock()
}

func appendKV(sb *strings.Builder, kv []any) {
	for i := 0; i+1 < len(kv); i += 2 {
		key, ok := kv[i].(string)
		if !ok {
			key = fmt.Sprint(kv[i])
		}
		sb.WriteByte(' ')
		sb.WriteString(key)
		sb.WriteByte('=')
		sb.WriteString(quoteIfNeeded(renderValue(kv[i+1])))
	}
	if len(kv)%2 == 1 {
		sb.WriteString(" !BADKEY=")
		sb.WriteString(quoteIfNeeded(renderValue(kv[len(kv)-1])))
	}
}

func renderValue(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case error:
		return x.Error()
	case time.Duration:
		return x.String()
	case fmt.Stringer:
		return x.String()
	}
	return fmt.Sprint(v)
}

// quoteIfNeeded quotes values containing whitespace, quotes or '='
// so lines stay machine-splittable on spaces.
func quoteIfNeeded(s string) string {
	if s == "" {
		return `""`
	}
	for _, r := range s {
		if r <= ' ' || r == '"' || r == '=' || r == 0x7f {
			return strconv.Quote(s)
		}
	}
	return s
}
