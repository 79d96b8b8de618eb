package lagraph

import (
	"errors"
	"fmt"
)

// MsgLen mirrors LAGRAPH_MSG_LEN: messages longer than this are truncated,
// so Go and C callers see identical diagnostics.
const MsgLen = 256

// Status is the LAGraph return convention: 0 success, negative error,
// positive warning (paper §II-C).
type Status int

// Status values. The negative block mirrors the v1.0 C header's error
// codes; the positive block holds warnings.
const (
	StatusOK Status = 0

	// warnings (> 0)
	WarnCacheNotComputed Status = 1 // basic mode computed a property for you
	WarnGraphUnchanged   Status = 2

	// errors (< 0)
	StatusInvalidGraph    Status = -1040
	StatusInvalidKind     Status = -1041
	StatusPropertyMissing Status = -1042
	StatusNullPointer     Status = -1043
	StatusInvalidValue    Status = -1044
	StatusNotImplemented  Status = -1045
	StatusIO              Status = -1046
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "LAGraph_OK"
	case WarnCacheNotComputed:
		return "LAGraph_WARN_CACHE_COMPUTED"
	case WarnGraphUnchanged:
		return "LAGraph_WARN_GRAPH_UNCHANGED"
	case StatusInvalidGraph:
		return "LAGraph_INVALID_GRAPH"
	case StatusInvalidKind:
		return "LAGraph_INVALID_KIND"
	case StatusPropertyMissing:
		return "LAGraph_PROPERTY_MISSING"
	case StatusNullPointer:
		return "LAGraph_NULL_POINTER"
	case StatusInvalidValue:
		return "LAGraph_INVALID_VALUE"
	case StatusNotImplemented:
		return "LAGraph_NOT_IMPLEMENTED"
	case StatusIO:
		return "LAGraph_IO_ERROR"
	default:
		return fmt.Sprintf("LAGraph_Status(%d)", int(s))
	}
}

// Error is the error type carrying a Status plus the msg buffer contents.
type Error struct {
	Status Status
	Msg    string
	cause  error
}

func (e *Error) Error() string {
	if e.Msg == "" {
		return e.Status.String()
	}
	return e.Status.String() + ": " + e.Msg
}

// Unwrap exposes a wrapped GraphBLAS (or I/O) error.
func (e *Error) Unwrap() error { return e.cause }

// errf builds an *Error with a formatted, MsgLen-truncated message.
func errf(s Status, format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	if len(msg) > MsgLen {
		msg = msg[:MsgLen]
	}
	return &Error{Status: s, Msg: msg}
}

// wrap attaches a Status to an underlying error (typically from grb).
func wrap(s Status, err error, context string) error {
	if err == nil {
		return nil
	}
	msg := context + ": " + err.Error()
	if len(msg) > MsgLen {
		msg = msg[:MsgLen]
	}
	return &Error{Status: s, Msg: msg, cause: err}
}

// StatusOf extracts the Status from an error; nil maps to StatusOK and a
// foreign error to StatusInvalidValue.
func StatusOf(err error) Status {
	if err == nil {
		return StatusOK
	}
	var le *Error
	if errors.As(err, &le) {
		return le.Status
	}
	var w *Warning
	if errors.As(err, &w) {
		return w.Status
	}
	return StatusInvalidValue
}

// MessageOf extracts the msg-buffer text from an error ("" when nil).
func MessageOf(err error) string {
	if err == nil {
		return ""
	}
	var le *Error
	if errors.As(err, &le) {
		return le.Msg
	}
	return err.Error()
}

// Warning is the >0 side of the status convention: the operation succeeded
// but wants to tell the caller something (e.g. a Basic-mode algorithm
// cached a property on the graph).
type Warning struct {
	Status Status
	Msg    string
}

func (w *Warning) Error() string { return w.Status.String() + ": " + w.Msg }

// IsWarning reports whether err is a warning rather than a failure.
func IsWarning(err error) bool {
	var w *Warning
	return errors.As(err, &w)
}

// Must panics on impossible internal errors (indices already validated by
// the caller); it keeps construction code readable.
func Must(err error) {
	if err != nil {
		panic(err)
	}
}
