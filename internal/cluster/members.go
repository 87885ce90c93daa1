package cluster

import (
	"fmt"
	"net/url"
	"strings"
	"unicode"
)

// ParsePeers parses the -peers flag format: a comma-separated list of
// name=url pairs, e.g.
//
//	n0=http://10.0.0.1:8080,n1=http://10.0.0.2:8080,n2=http://10.0.0.3:8080
//
// Names must be unique; URLs must be absolute http or https.
func ParsePeers(s string) ([]Member, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("cluster: empty peer list")
	}
	var members []Member
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rawURL, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("cluster: peer %q is not name=url", part)
		}
		m := Member{Name: strings.TrimSpace(name), URL: strings.TrimSpace(rawURL)}
		members = append(members, m)
	}
	if err := validateMembers(members); err != nil {
		return nil, err
	}
	return members, nil
}

// validateMembers enforces the invariants every consumer of a member list
// assumes: at least one member, unique non-empty names, absolute http(s)
// URLs with no trailing slash ambiguity.
func validateMembers(members []Member) error {
	if len(members) == 0 {
		return fmt.Errorf("cluster: empty member list")
	}
	seen := make(map[string]bool, len(members))
	for i := range members {
		m := &members[i]
		if m.Name == "" {
			return fmt.Errorf("cluster: member %d has no name", i)
		}
		if strings.ContainsAny(m.Name, "/ \t") {
			return fmt.Errorf("cluster: member name %q contains a separator", m.Name)
		}
		if seen[m.Name] {
			return fmt.Errorf("cluster: duplicate member name %q", m.Name)
		}
		seen[m.Name] = true
		// Spaces go with the slashes: "http://a/ /" is "http://a", not a
		// base URL ending in a space.
		m.URL = strings.TrimRightFunc(m.URL, func(r rune) bool { return r == '/' || unicode.IsSpace(r) })
		u, err := url.Parse(m.URL)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return fmt.Errorf("cluster: member %q has invalid url %q", m.Name, m.URL)
		}
	}
	return nil
}
