package cloverleaf

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseDeck reads a CloverLeaf input deck (the clover.in format used by
// the SPEChpc harness) and returns the corresponding Config. Supported
// directives: the *clover/*endclover block, state lines, x_cells,
// y_cells, xmin/xmax/ymin/ymax, initial_timestep, max_timestep,
// timestep_rise, end_step. Unknown keys are ignored (the real deck
// carries visit frequencies etc. that do not affect the solve).
func ParseDeck(r io.Reader) (Config, error) {
	cfg := Config{
		DtInit: 0.04, DtMax: 0.04, DtRise: 1.5,
		Gamma: 1.4,
	}
	states := map[int]State{}
	maxState := 0

	sc := bufio.NewScanner(r)
	inBlock := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "!") || strings.HasPrefix(line, "#") {
			continue
		}
		lower := strings.ToLower(line)
		switch {
		case lower == "*clover":
			inBlock = true
			continue
		case lower == "*endclover":
			inBlock = false
			continue
		}
		if !inBlock {
			continue
		}

		if strings.HasPrefix(lower, "state") {
			idx, st, err := parseStateLine(line)
			if err != nil {
				return cfg, fmt.Errorf("cloverleaf: deck line %d: %w", lineNo, err)
			}
			states[idx] = st
			if idx > maxState {
				maxState = idx
			}
			continue
		}

		key, val, ok := splitKV(line)
		if !ok {
			continue // directives like "test_problem 2"
		}
		if err := applyKV(&cfg, key, val); err != nil {
			return cfg, fmt.Errorf("cloverleaf: deck line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return cfg, err
	}

	if maxState == 0 {
		return cfg, fmt.Errorf("cloverleaf: deck defines no states")
	}
	cfg.States = make([]State, maxState)
	for i := 1; i <= maxState; i++ {
		st, ok := states[i]
		if !ok {
			return cfg, fmt.Errorf("cloverleaf: deck is missing state %d", i)
		}
		cfg.States[i-1] = st
	}
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// splitKV parses "key=value" tokens.
func splitKV(line string) (string, string, bool) {
	i := strings.IndexByte(line, '=')
	if i < 0 {
		return "", "", false
	}
	return strings.ToLower(strings.TrimSpace(line[:i])), strings.TrimSpace(line[i+1:]), true
}

func applyKV(cfg *Config, key, val string) error {
	switch key {
	case "x_cells":
		return parseInt(val, &cfg.GridX)
	case "y_cells":
		return parseInt(val, &cfg.GridY)
	case "xmin":
		return parseFloat(val, &cfg.XMin)
	case "xmax":
		return parseFloat(val, &cfg.XMax)
	case "ymin":
		return parseFloat(val, &cfg.YMin)
	case "ymax":
		return parseFloat(val, &cfg.YMax)
	case "initial_timestep":
		return parseFloat(val, &cfg.DtInit)
	case "max_timestep":
		return parseFloat(val, &cfg.DtMax)
	case "timestep_rise":
		return parseFloat(val, &cfg.DtRise)
	case "end_step":
		return parseInt(val, &cfg.EndStep)
	}
	return nil // ignore unknown keys
}

// parseStateLine handles e.g.
//
//	state 2 density=1.0 energy=2.5 geometry=rectangle xmin=0.0 xmax=5.0 ymin=0.0 ymax=2.0
func parseStateLine(line string) (int, State, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return 0, State{}, fmt.Errorf("malformed state line %q", line)
	}
	idx, err := strconv.Atoi(fields[1])
	if err != nil || idx < 1 {
		return 0, State{}, fmt.Errorf("bad state index %q", fields[1])
	}
	var st State
	for _, tok := range fields[2:] {
		key, val, ok := splitKV(tok)
		if !ok {
			continue
		}
		var err error
		switch key {
		case "density":
			err = parseFloat(val, &st.Density)
		case "energy":
			err = parseFloat(val, &st.Energy)
		case "xvel":
			err = parseFloat(val, &st.XVel)
		case "yvel":
			err = parseFloat(val, &st.YVel)
		case "xmin":
			err = parseFloat(val, &st.XMin)
		case "xmax":
			err = parseFloat(val, &st.XMax)
		case "ymin":
			err = parseFloat(val, &st.YMin)
		case "ymax":
			err = parseFloat(val, &st.YMax)
		case "geometry":
			if val != "rectangle" {
				err = fmt.Errorf("unsupported geometry %q (only rectangle)", val)
			}
		}
		if err != nil {
			return 0, State{}, err
		}
	}
	return idx, st, nil
}

func parseInt(s string, out *int) error {
	v, err := strconv.Atoi(s)
	if err != nil {
		return fmt.Errorf("bad integer %q", s)
	}
	*out = v
	return nil
}

func parseFloat(s string, out *float64) error {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return fmt.Errorf("bad float %q", s)
	}
	*out = v
	return nil
}
