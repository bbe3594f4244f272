"""Development tools that are not part of the installed ``repro`` package."""
