module charmtrace

go 1.24
